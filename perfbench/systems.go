package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"time"

	"hwtwbg"
	"hwtwbg/internal/table"
	"hwtwbg/kv"
	"hwtwbg/lockservice"
)

// shards is pinned because the default shard count follows GOMAXPROCS,
// which would make the numbers depend on the host.
const shards = 8

// system is one instance of the program under test, opened for a
// workload or for one rung of the layer ladder.
type system interface {
	// txn runs one transaction for client c, retries included.
	txn(ctx context.Context, c *client) error
	// manager is the lock manager whose counters describe the run (nil
	// for the bare lock table).
	manager() *hwtwbg.Manager
	// check verifies the system's outputs at a quiescent point.
	check(ctx context.Context) error
	close()
}

// errNotGranted reports a lock-table request that queued on a
// transaction-private resource, which the table rung never expects.
var errNotGranted = errors.New("table: private resource was not granted")

// tableSystem drives internal/table directly: the ladder's bottom rung,
// the lock table without shards, journal or detector. It serves one
// client.
type tableSystem struct {
	tb      *table.Table
	lockAll bool
	next    table.TxnID
}

func openTable(lockAll bool) *tableSystem { return &tableSystem{tb: table.New(), lockAll: lockAll} }

func (s *tableSystem) txn(_ context.Context, c *client) error {
	p := c.in.pick()
	s.next++
	id := c.nextTxn()
	root := c.tr.root(spTxn, id)
	n := 2
	if s.lockAll {
		n = 3
	}
	for i := 0; i < n; i++ {
		m := hwtwbg.X
		if i == 0 {
			m = hwtwbg.S
		}
		sp := c.tr.begin(spTableRequest, id, root)
		res, err := s.tb.RequestEx(s.next, c.in.names[p[i]], m)
		c.tr.end(sp)
		if err == nil && !res.Granted {
			err = errNotGranted
		}
		if err != nil {
			return err
		}
	}
	sp := c.tr.begin(spTableRelease, id, root)
	_, err := s.tb.Release(s.next)
	c.tr.end(sp)
	c.tr.end(root)
	return err
}

func (s *tableSystem) manager() *hwtwbg.Manager { return nil }

func (s *tableSystem) check(context.Context) error {
	if txns := s.tb.Txns(); len(txns) != 0 {
		return fmt.Errorf("table: %d transactions left after the run", len(txns))
	}
	return nil
}

func (s *tableSystem) close() {}

// mgrSystem drives hwtwbg.Manager directly: the uncontended workload
// and the ladder's manager rungs. Each transaction is Begin, Lock S,
// Lock X, Commit, or with lockAll Begin, LockAll(S, X, X), Commit.
type mgrSystem struct {
	lm      *hwtwbg.Manager
	lockAll bool
}

func openManager(opts hwtwbg.Options, lockAll bool) *mgrSystem {
	opts.Shards = shards
	return &mgrSystem{lm: hwtwbg.Open(opts), lockAll: lockAll}
}

func (s *mgrSystem) txn(ctx context.Context, c *client) error {
	p := c.in.pick()
	names := c.in.names
	id := c.nextTxn()
	root := c.tr.root(spTxn, id)
	sp := c.tr.begin(spMgrBegin, id, root)
	t := s.lm.Begin()
	c.tr.end(sp)
	var err error
	if s.lockAll {
		c.reqs = append(c.reqs[:0],
			hwtwbg.LockRequest{Resource: names[p[0]], Mode: hwtwbg.S},
			hwtwbg.LockRequest{Resource: names[p[1]], Mode: hwtwbg.X},
			hwtwbg.LockRequest{Resource: names[p[2]], Mode: hwtwbg.X})
		sp = c.tr.begin(spMgrLockAll, id, root)
		err = t.LockAll(ctx, c.reqs)
		c.tr.end(sp)
	} else {
		sp = c.tr.begin(spMgrLock, id, root)
		err = t.Lock(ctx, names[p[0]], hwtwbg.S)
		c.tr.end(sp)
		if err == nil {
			sp = c.tr.begin(spMgrLock, id, root)
			err = t.Lock(ctx, names[p[1]], hwtwbg.X)
			c.tr.end(sp)
		}
	}
	if err == nil {
		sp = c.tr.begin(spMgrCommit, id, root)
		err = t.Commit()
		c.tr.end(sp)
	}
	c.tr.end(root)
	if err != nil {
		t.Abort()
	}
	t.Recycle()
	return err
}

func (s *mgrSystem) manager() *hwtwbg.Manager { return s.lm }

func (s *mgrSystem) check(context.Context) error { return tableEmpty(s.lm) }

func (s *mgrSystem) close() { s.lm.Close() }

// tableEmpty checks that every transaction released its locks.
func tableEmpty(lm *hwtwbg.Manager) error {
	if snap := lm.Snapshot(); snap != "" {
		return fmt.Errorf("lock table not empty after the run:\n%s", snap)
	}
	return nil
}

// wireSystem serves a lock manager over loopback TCP in this process
// and drives it through one lockservice.Client per client. Both sides
// of every connection are counted.
type wireSystem struct {
	srv      *lockservice.Server
	conns    []*lockservice.Client
	cli, svr ioCounts
	lockAll  bool
}

func openWire(opts hwtwbg.Options, lockAll bool, clients int) (*wireSystem, error) {
	opts.Shards = shards
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("wire: listen: %w", err)
	}
	s := &wireSystem{lockAll: lockAll}
	s.srv = lockservice.Serve(&countingListener{Listener: ln, n: &s.svr}, opts)
	for i := 0; i < clients; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			s.close()
			return nil, fmt.Errorf("wire: dial: %w", err)
		}
		s.conns = append(s.conns, lockservice.NewClient(&countingConn{Conn: conn, n: &s.cli}))
	}
	return s, nil
}

func (s *wireSystem) txn(_ context.Context, c *client) error {
	p := c.in.pick()
	names := c.in.names
	cl := s.conns[c.id]
	id := c.nextTxn()
	root := c.tr.root(spTxn, id)
	sp := c.tr.begin(spWireBegin, id, root)
	_, err := cl.Begin()
	c.tr.end(sp)
	if err == nil {
		if s.lockAll {
			c.reqs = append(c.reqs[:0],
				hwtwbg.LockRequest{Resource: names[p[0]], Mode: hwtwbg.S},
				hwtwbg.LockRequest{Resource: names[p[1]], Mode: hwtwbg.X},
				hwtwbg.LockRequest{Resource: names[p[2]], Mode: hwtwbg.X})
			sp = c.tr.begin(spWireLockAll, id, root)
			err = cl.LockAll(c.reqs)
			c.tr.end(sp)
		} else {
			sp = c.tr.begin(spWireLock, id, root)
			err = cl.Lock(string(names[p[0]]), hwtwbg.S)
			c.tr.end(sp)
			if err == nil {
				sp = c.tr.begin(spWireLock, id, root)
				err = cl.Lock(string(names[p[1]]), hwtwbg.X)
				c.tr.end(sp)
			}
		}
	}
	if err == nil {
		sp = c.tr.begin(spWireCommit, id, root)
		err = cl.Commit()
		c.tr.end(sp)
	}
	c.tr.end(root)
	return err
}

func (s *wireSystem) manager() *hwtwbg.Manager { return s.srv.Manager() }

func (s *wireSystem) check(context.Context) error { return tableEmpty(s.srv.Manager()) }

func (s *wireSystem) close() {
	for _, c := range s.conns {
		c.Close()
	}
	s.srv.Close()
}

// kvGet reads an integer value inside tx, timing the call as a span and
// noting a deadlock abort.
func kvGet(ctx context.Context, c *client, tx *kv.Tx, key string, id uint64, parent int32) (int, error) {
	sp := c.tr.begin(spKVGet, id, parent)
	t0 := time.Now()
	v, ok, err := tx.Get(ctx, key)
	c.tr.end(sp)
	if err != nil {
		c.noteErr(err, t0)
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("kv: key %q missing", key)
	}
	return strconv.Atoi(v)
}

// kvPut writes an integer value inside tx, timing the call as a span
// and noting a deadlock abort.
func kvPut(ctx context.Context, c *client, tx *kv.Tx, key string, v int, id uint64, parent int32) error {
	sp := c.tr.begin(spKVPut, id, parent)
	t0 := time.Now()
	err := tx.Put(ctx, key, strconv.Itoa(v))
	c.tr.end(sp)
	if err != nil {
		c.noteErr(err, t0)
	}
	return err
}

// kvUpdate runs body in Store.Update with the kv spans: the Update call
// is the root, each run of the closure an attempt, and the interval from
// the last attempt's return to Update's return is the commit (Update
// commits internally, where the benchmark cannot time it directly).
func kvUpdate(ctx context.Context, c *client, st *kv.Store, body func(tx *kv.Tx, id uint64, attempt int32) error) error {
	id := c.nextTxn()
	root := c.tr.root(spKVUpdate, id)
	var last int32 = -1
	err := st.Update(ctx, func(tx *kv.Tx) error {
		c.attempts++
		last = c.tr.begin(spKVAttempt, id, root)
		err := body(tx, id, last)
		c.tr.end(last)
		return err
	})
	c.tr.end(root)
	if err == nil {
		c.tr.record(spKVCommit, id, root, c.tr.endOf(last), c.tr.endOf(root))
	}
	return err
}

// kvSystem is the ladder's kv rung: a plain store (no WAL, no history)
// running the uncontended shape as Update{Get, Put} on private keys.
type kvSystem struct{ st *kv.Store }

func openKV() *kvSystem {
	return &kvSystem{st: kv.Open(kv.Options{Shards: shards, DetectEvery: 10 * time.Millisecond})}
}

func (s *kvSystem) txn(ctx context.Context, c *client) error {
	p := c.in.pick()
	r, w := string(c.in.names[p[0]]), string(c.in.names[p[1]])
	return kvUpdate(ctx, c, s.st, func(tx *kv.Tx, id uint64, attempt int32) error {
		sp := c.tr.begin(spKVGet, id, attempt)
		t0 := time.Now()
		_, _, err := tx.Get(ctx, r)
		c.tr.end(sp)
		if err != nil {
			c.noteErr(err, t0)
			return err
		}
		return kvPut(ctx, c, tx, w, int(p[2]), id, attempt)
	})
}

func (s *kvSystem) manager() *hwtwbg.Manager { return s.st.Manager() }

func (s *kvSystem) check(context.Context) error { return tableEmpty(s.st.Manager()) }

func (s *kvSystem) close() { s.st.Close() }

package main

import (
	"context"
	"fmt"
	"maps"
	"strconv"
	"sync"
	"time"

	"hwtwbg"
	"hwtwbg/kv"
)

const (
	bankAccounts = 32   // hot accounts every transfer draws from
	bankOpening  = 1000 // opening balance of each account
	forestPairs  = 1024 // standing holder/waiter pairs parked in the manager
)

// bankSystem is the transfer workload: a kv store with WAL and history
// whose transactions each read two hot accounts and then write both,
// which deadlocks on S→X conversions. A standing forest of parked
// waiters sits in the same manager for the detector to walk.
type bankSystem struct {
	st     *kv.Store
	hist   *kv.History
	wal    *kv.WAL
	keys   []string
	forest *forest
}

func openBank(ctx context.Context, accounts []hwtwbg.ResourceID) (*bankSystem, error) {
	b := &bankSystem{hist: kv.NewHistory(), wal: kv.NewWAL()}
	b.st = kv.Open(kv.Options{Shards: shards, DetectEvery: 10 * time.Millisecond, WAL: b.wal, History: b.hist})
	for _, a := range accounts {
		b.keys = append(b.keys, string(a))
	}
	err := b.st.Update(ctx, func(tx *kv.Tx) error {
		for _, k := range b.keys {
			if err := tx.Put(ctx, k, strconv.Itoa(bankOpening)); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil {
		b.forest, err = plantForest(ctx, b.st.Manager(), forestPairs)
	}
	if err != nil {
		b.close()
		return nil, fmt.Errorf("transfer: setup: %w", err)
	}
	return b, nil
}

func (b *bankSystem) txn(ctx context.Context, c *client) error {
	p := c.in.pick()
	from, to := b.keys[p[0]], b.keys[p[1]]
	amount := 1 + int(p[2])%10
	return kvUpdate(ctx, c, b.st, func(tx *kv.Tx, id uint64, attempt int32) error {
		fb, err := kvGet(ctx, c, tx, from, id, attempt)
		if err != nil {
			return err
		}
		tb, err := kvGet(ctx, c, tx, to, id, attempt)
		if err != nil {
			return err
		}
		if err := kvPut(ctx, c, tx, from, fb-amount, id, attempt); err != nil {
			return err
		}
		return kvPut(ctx, c, tx, to, tb+amount, id, attempt)
	})
}

func (b *bankSystem) manager() *hwtwbg.Manager { return b.st.Manager() }

func (b *bankSystem) check(ctx context.Context) error {
	if err := checkBank(ctx, b.st, b.hist, b.wal, b.keys, bankAccounts*bankOpening); err != nil {
		return err
	}
	return b.forest.check()
}

func (b *bankSystem) close() {
	b.st.Close()
	if b.forest != nil {
		b.forest.wait()
	}
}

// checkBank verifies a transfer run's outputs: the committed history is
// serializable, the balances of keys sum to total, and replaying the
// WAL rebuilds exactly the store's final contents.
func checkBank(ctx context.Context, st *kv.Store, hist *kv.History, wal *kv.WAL, keys []string, total int) error {
	if err := hist.CheckSerializable(); err != nil {
		return err
	}
	final := make(map[string]string)
	err := st.View(ctx, func(tx *kv.Tx) error {
		kvs, err := tx.Scan(ctx)
		clear(final)
		for _, p := range kvs {
			final[p.Key] = p.Value
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("transfer: final scan: %w", err)
	}
	sum := 0
	for _, k := range keys {
		v, err := strconv.Atoi(final[k])
		if err != nil {
			return fmt.Errorf("transfer: account %q holds %q: %w", k, final[k], err)
		}
		sum += v
	}
	if sum != total {
		return fmt.Errorf("transfer: balances sum to %d, want %d", sum, total)
	}
	if replayed := kv.Replay(wal.Records()); !maps.Equal(replayed, final) {
		return fmt.Errorf("transfer: WAL replay gives %d keys that differ from the store's %d", len(replayed), len(final))
	}
	return nil
}

// forest is the standing set-up state of the transfer workload: pairs
// of transactions on resources outside kv, each holder owning X and
// its waiter parked in Txn.Lock behind it for the whole round. The
// pairs form no cycle, so they are never load and never victims; they
// make every detector activation walk about 2·pairs vertices.
type forest struct {
	lm       *hwtwbg.Manager
	holders  []*hwtwbg.Txn
	waiters  []hwtwbg.TxnID
	returned chan error // one send per waiter whose Lock returned
	wg       sync.WaitGroup
}

func plantForest(ctx context.Context, lm *hwtwbg.Manager, pairs int) (*forest, error) {
	f := &forest{lm: lm, returned: make(chan error, pairs)}
	before := lm.MetricsSnapshot().Total.Blocked
	for i := 0; i < pairs; i++ {
		r := hwtwbg.ResourceID("forest/" + strconv.Itoa(i))
		h := lm.Begin()
		f.holders = append(f.holders, h)
		if err := h.Lock(ctx, r, hwtwbg.X); err != nil {
			return f, fmt.Errorf("forest holder %d: %w", i, err)
		}
		w := lm.Begin()
		f.waiters = append(f.waiters, w.ID())
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			f.returned <- w.Lock(ctx, r, hwtwbg.X)
		}()
	}
	for lm.MetricsSnapshot().Total.Blocked-before < uint64(pairs) {
		select {
		case err := <-f.returned:
			return f, fmt.Errorf("forest waiter returned while parking: %v", err)
		case <-time.After(200 * time.Microsecond):
		}
	}
	return f, nil
}

// check verifies that the detector aborted no forest transaction and
// that every waiter is still parked.
func (f *forest) check() error {
	if n := len(f.returned); n > 0 {
		return fmt.Errorf("forest: %d parked waiters returned during the run", n)
	}
	for i, h := range f.holders {
		if err := h.Err(); err != nil {
			return fmt.Errorf("forest: holder %d ended: %w", i, err)
		}
	}
	for _, id := range f.waiters {
		if !f.lm.Blocked(id) {
			return fmt.Errorf("forest: waiter T%d is no longer blocked", id)
		}
	}
	return nil
}

// wait joins the waiter goroutines; the manager must be closed first,
// which aborts their Lock calls.
func (f *forest) wait() { f.wg.Wait() }

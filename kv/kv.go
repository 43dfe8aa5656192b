// Package kv is a strict two-phase-locked, serializable, in-memory
// key-value store built on the hwtwbg lock manager — the "sequential
// transaction processing" system of the paper made concrete.
//
// Concurrency control is two-level multiple granularity locking:
// readers take IS on the store root and S on the key; writers take IX
// on the root and X on the key; full scans take S on the root, which
// also gives phantom protection (a scan blocks concurrent inserts and
// deletes, because every writer holds IX on the root). Deadlocks —
// including the classic read-then-upgrade conversion deadlock — are
// resolved by the store's background H/W-TWBG detector; victims surface
// as hwtwbg.ErrAborted, and the Update/View helpers retry them with
// jittered backoff.
//
// Writes are buffered in the transaction and applied atomically at
// Commit, so aborting is free and readers never observe dirty data.
package kv

import (
	"context"
	"errors"
	"math/rand/v2"
	"sort"
	"sync"
	"time"

	"hwtwbg"
)

// root is the resource representing the whole store (the MGL root).
const root hwtwbg.ResourceID = "kv:/"

func keyResource(key string) hwtwbg.ResourceID {
	return hwtwbg.ResourceID("kv:/" + key)
}

// Options configures a Store.
type Options struct {
	// DetectEvery is the deadlock detection period (default 10ms).
	DetectEvery time.Duration
	// Shards is the lock manager's shard count, rounded up to a power
	// of two (0 derives it from GOMAXPROCS; see hwtwbg.Options.Shards).
	Shards int
	// MaxRetries bounds Update/View retries after deadlock
	// victimization (default 100).
	MaxRetries int
	// JournalSize is the lock manager's flight-recorder capacity in
	// records per ring (0 = default, negative = disabled; see
	// hwtwbg.Options.JournalSize).
	JournalSize int
	// WAL, when non-nil, receives a redo record batch for every commit;
	// Recover rebuilds a store from it (the paper's "atomic with
	// respect to the recovery" substrate).
	WAL *WAL
	// History, when non-nil, records every committed transaction's
	// read/write footprint for serializability auditing.
	History *History
	// Tracer, when non-nil, receives the lock manager's tracing hooks
	// (requests, blocks, grants, aborts, detector activations).
	Tracer hwtwbg.Tracer
}

// Store is a transactional key-value store. Create one with Open; all
// methods are safe for concurrent use.
type Store struct {
	lm   *hwtwbg.Manager
	opts Options
	wal  *WAL

	mu   sync.RWMutex
	data map[string]string
}

// Open creates a store and starts its deadlock detector.
func Open(opts Options) *Store {
	if opts.DetectEvery == 0 {
		opts.DetectEvery = 10 * time.Millisecond
	}
	if opts.MaxRetries == 0 {
		opts.MaxRetries = 100
	}
	return &Store{
		lm: hwtwbg.Open(hwtwbg.Options{
			Period: opts.DetectEvery, Shards: opts.Shards,
			Tracer: opts.Tracer, JournalSize: opts.JournalSize,
		}),
		opts: opts,
		wal:  opts.WAL,
		data: make(map[string]string),
	}
}

// Close shuts the store down, aborting live transactions.
func (s *Store) Close() { s.lm.Close() }

// Stats returns the deadlock detector's cumulative statistics.
func (s *Store) Stats() hwtwbg.Stats { return s.lm.Stats() }

// Manager exposes the underlying lock manager, for wiring the store
// into diagnostics (lockservice.DebugHandler, expvar publishing).
func (s *Store) Manager() *hwtwbg.Manager { return s.lm }

// MetricsSnapshot returns the lock manager's full metrics snapshot
// (per-shard counters, latency histograms, detector phase breakdown).
func (s *Store) MetricsSnapshot() hwtwbg.MetricsSnapshot { return s.lm.MetricsSnapshot() }

// Len returns the number of keys (unlocked, diagnostic).
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.data)
}

// ErrTooManyRetries is returned by Update/View when a closure keeps
// being chosen as a deadlock victim.
var ErrTooManyRetries = errors.New("kv: transaction exceeded retry budget")

// Tx is one transaction. Use it from a single goroutine.
type Tx struct {
	s      *Store
	t      *hwtwbg.Txn
	writes map[string]*string // nil value = delete
	reads  map[string]string  // first-read values, for the history auditor
}

// Begin starts a transaction. Prefer Update/View, which handle retry
// and commit.
func (s *Store) Begin() *Tx {
	return &Tx{s: s, t: s.lm.Begin(), writes: make(map[string]*string)}
}

// SetOpTag attaches an application-defined operation tag to the
// transaction (see hwtwbg.Txn.SetTag): postmortems and `hwtrace
// report` group wait chains by it.
func (tx *Tx) SetOpTag(tag uint64) { tx.t.SetTag(tag) }

// Get returns the value of key. The transaction sees its own buffered
// writes.
func (tx *Tx) Get(ctx context.Context, key string) (string, bool, error) {
	if w, ok := tx.writes[key]; ok {
		if w == nil {
			return "", false, nil
		}
		return *w, true, nil
	}
	if err := tx.t.Lock(ctx, root, hwtwbg.IS); err != nil {
		return "", false, err
	}
	if err := tx.t.Lock(ctx, keyResource(key), hwtwbg.S); err != nil {
		return "", false, err
	}
	tx.s.mu.RLock()
	defer tx.s.mu.RUnlock()
	v, ok := tx.s.data[key]
	if tx.s.opts.History != nil {
		if tx.reads == nil {
			tx.reads = make(map[string]string)
		}
		if _, seen := tx.reads[key]; !seen {
			tx.reads[key] = v // "" when absent
		}
	}
	return v, ok, nil
}

// GetAll returns the values of every key in keys, omitting absent ones.
// All key locks (plus IS on the root) are acquired in one LockAll
// batch — one shard-mutex round per shard instead of one per key — and
// the transaction sees its own buffered writes, exactly as Get does.
func (tx *Tx) GetAll(ctx context.Context, keys ...string) (map[string]string, error) {
	out := make(map[string]string, len(keys))
	reqs := make([]hwtwbg.LockRequest, 0, len(keys)+1)
	reqs = append(reqs, hwtwbg.LockRequest{Resource: root, Mode: hwtwbg.IS})
	need := make([]string, 0, len(keys))
	for _, k := range keys {
		if _, ok := tx.writes[k]; ok {
			continue // served from the write buffer; no lock needed
		}
		need = append(need, k)
	}
	// Sorted key order keeps the lock footprint deterministic for a
	// given key set (LockAll itself re-sorts by shard).
	sort.Strings(need)
	for _, k := range need {
		reqs = append(reqs, hwtwbg.LockRequest{Resource: keyResource(k), Mode: hwtwbg.S})
	}
	if err := tx.t.LockAll(ctx, reqs); err != nil {
		return nil, err
	}
	tx.s.mu.RLock()
	for _, k := range need {
		v, ok := tx.s.data[k]
		if tx.s.opts.History != nil {
			if tx.reads == nil {
				tx.reads = make(map[string]string)
			}
			if _, seen := tx.reads[k]; !seen {
				tx.reads[k] = v // "" when absent
			}
		}
		if ok {
			out[k] = v
		}
	}
	tx.s.mu.RUnlock()
	for _, k := range keys {
		if w, ok := tx.writes[k]; ok && w != nil {
			out[k] = *w
		}
	}
	return out, nil
}

// PutAll buffers writes of every entry in kvs, acquiring all the write
// locks (IX on the root plus X per key) in one LockAll batch.
func (tx *Tx) PutAll(ctx context.Context, kvs map[string]string) error {
	if len(kvs) == 0 {
		return nil
	}
	keys := make([]string, 0, len(kvs))
	for k := range kvs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	reqs := make([]hwtwbg.LockRequest, 0, len(keys)+1)
	reqs = append(reqs, hwtwbg.LockRequest{Resource: root, Mode: hwtwbg.IX})
	for _, k := range keys {
		reqs = append(reqs, hwtwbg.LockRequest{Resource: keyResource(k), Mode: hwtwbg.X})
	}
	if err := tx.t.LockAll(ctx, reqs); err != nil {
		return err
	}
	for _, k := range keys {
		v := kvs[k]
		tx.writes[k] = &v
	}
	return nil
}

// Put buffers a write of key = value.
func (tx *Tx) Put(ctx context.Context, key, value string) error {
	if err := tx.lockWrite(ctx, key); err != nil {
		return err
	}
	v := value
	tx.writes[key] = &v
	return nil
}

// Delete buffers a deletion of key.
func (tx *Tx) Delete(ctx context.Context, key string) error {
	if err := tx.lockWrite(ctx, key); err != nil {
		return err
	}
	tx.writes[key] = nil
	return nil
}

func (tx *Tx) lockWrite(ctx context.Context, key string) error {
	if err := tx.t.Lock(ctx, root, hwtwbg.IX); err != nil {
		return err
	}
	return tx.t.Lock(ctx, keyResource(key), hwtwbg.X)
}

// Scan returns every key-value pair in sorted key order, merged with
// the transaction's own writes. It takes S on the store root, so it is
// phantom-safe: no concurrent transaction can commit an insert or
// delete while the scanning transaction lives.
func (tx *Tx) Scan(ctx context.Context) ([]KV, error) {
	if err := tx.t.Lock(ctx, root, hwtwbg.S); err != nil {
		return nil, err
	}
	tx.s.mu.RLock()
	merged := make(map[string]string, len(tx.s.data))
	for k, v := range tx.s.data {
		merged[k] = v
	}
	tx.s.mu.RUnlock()
	for k, w := range tx.writes {
		if w == nil {
			delete(merged, k)
		} else {
			merged[k] = *w
		}
	}
	out := make([]KV, 0, len(merged))
	for k, v := range merged {
		out = append(out, KV{Key: k, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// KV is one key-value pair.
type KV struct {
	Key, Value string
}

// Commit applies the buffered writes atomically and releases all locks.
func (tx *Tx) Commit() error {
	// The data mutex is held across the lock-level commit: readers take
	// their locks first and the data mutex second (never nested the
	// other way), so a reader granted by our release blocks on s.mu
	// until the whole batch is applied — no half-applied state is ever
	// observable, and nothing is applied if the commit fails.
	tx.s.mu.Lock()
	defer tx.s.mu.Unlock()
	if err := tx.t.Commit(); err != nil {
		return err
	}
	if tx.s.wal != nil && len(tx.writes) > 0 {
		tx.s.wal.logCommit(tx.writes)
	}
	if tx.s.opts.History != nil {
		tx.s.opts.History.record(tx.reads, tx.writes)
	}
	for k, w := range tx.writes {
		if w == nil {
			delete(tx.s.data, k)
		} else {
			tx.s.data[k] = *w
		}
	}
	return nil
}

// Abort drops the buffered writes and releases all locks.
func (tx *Tx) Abort() { tx.t.Abort() }

// Err reports the transaction's terminal error (nil while live).
func (tx *Tx) Err() error { return tx.t.Err() }

// Update runs fn inside a read-write transaction, committing on success
// and retrying (with jittered backoff) when the transaction is chosen
// as a deadlock victim. fn may be invoked multiple times and must not
// keep side effects outside the transaction.
func (s *Store) Update(ctx context.Context, fn func(tx *Tx) error) error {
	return s.retry(ctx, fn)
}

// View runs fn inside a transaction for reading. It is identical to
// Update except in name; writes performed by fn are still applied (the
// name documents intent).
func (s *Store) View(ctx context.Context, fn func(tx *Tx) error) error {
	return s.retry(ctx, fn)
}

func (s *Store) retry(ctx context.Context, fn func(tx *Tx) error) error {
	for attempt := 1; attempt <= s.opts.MaxRetries; attempt++ {
		tx := s.Begin()
		err := fn(tx)
		if err == nil {
			err = tx.Commit()
			if err == nil {
				tx.t.Recycle()
				return nil
			}
		} else {
			tx.Abort()
		}
		tx.t.Recycle() // no-op unless the transaction reached a terminal state
		if !errors.Is(err, hwtwbg.ErrAborted) {
			return err
		}
		// Deadlock victim: back off and retry.
		backoff := time.Duration(rand.IntN(attempt*500)+100) * time.Microsecond
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
	}
	return ErrTooManyRetries
}

package kv

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hwtwbg"
)

func open(t *testing.T) *Store {
	t.Helper()
	s := Open(Options{DetectEvery: time.Millisecond})
	t.Cleanup(s.Close)
	return s
}

func TestBasicCRUD(t *testing.T) {
	s := open(t)
	ctx := context.Background()
	tx := s.Begin()
	if _, ok, err := tx.Get(ctx, "a"); err != nil || ok {
		t.Fatalf("get missing: %v %v", ok, err)
	}
	if err := tx.Put(ctx, "a", "1"); err != nil {
		t.Fatal(err)
	}
	// Read-your-writes before commit.
	if v, ok, err := tx.Get(ctx, "a"); err != nil || !ok || v != "1" {
		t.Fatalf("read-your-writes: %q %v %v", v, ok, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2 := s.Begin()
	if v, ok, _ := tx2.Get(ctx, "a"); !ok || v != "1" {
		t.Fatalf("committed value: %q %v", v, ok)
	}
	if err := tx2.Delete(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := tx2.Get(ctx, "a"); ok {
		t.Fatal("read-your-deletes failed")
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestAbortDiscardsWrites(t *testing.T) {
	s := open(t)
	ctx := context.Background()
	tx := s.Begin()
	if err := tx.Put(ctx, "k", "dirty"); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	if err := tx.Err(); !errors.Is(err, hwtwbg.ErrAborted) {
		t.Fatalf("Err = %v", err)
	}
	tx2 := s.Begin()
	defer tx2.Abort()
	if _, ok, _ := tx2.Get(ctx, "k"); ok {
		t.Fatal("aborted write became visible")
	}
}

func TestNoDirtyReads(t *testing.T) {
	s := open(t)
	ctx := context.Background()
	w := s.Begin()
	if err := w.Put(ctx, "k", "v1"); err != nil {
		t.Fatal(err)
	}
	// A reader must block until the writer finishes (X lock on k).
	got := make(chan string, 1)
	go func() {
		r := s.Begin()
		defer r.Abort()
		v, _, err := r.Get(ctx, "k")
		if err != nil {
			got <- "err:" + err.Error()
			return
		}
		got <- v
	}()
	select {
	case v := <-got:
		t.Fatalf("reader returned %q while writer uncommitted", v)
	case <-time.After(20 * time.Millisecond):
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if v := <-got; v != "v1" {
		t.Fatalf("reader saw %q", v)
	}
}

func TestScanSortedAndMerged(t *testing.T) {
	s := open(t)
	ctx := context.Background()
	if err := s.Update(ctx, func(tx *Tx) error {
		for _, k := range []string{"b", "a", "c"} {
			if err := tx.Put(ctx, k, "v"+k); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	tx := s.Begin()
	defer tx.Abort()
	if err := tx.Put(ctx, "d", "vd"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	kvs, err := tx.Scan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := []KV{{"b", "vb"}, {"c", "vc"}, {"d", "vd"}}
	if len(kvs) != len(want) {
		t.Fatalf("scan = %v", kvs)
	}
	for i := range want {
		if kvs[i] != want[i] {
			t.Fatalf("scan = %v, want %v", kvs, want)
		}
	}
}

func TestScanBlocksPhantoms(t *testing.T) {
	s := open(t)
	ctx := context.Background()
	scanner := s.Begin()
	if _, err := scanner.Scan(ctx); err != nil {
		t.Fatal(err)
	}
	inserted := make(chan error, 1)
	go func() {
		w := s.Begin()
		if err := w.Put(ctx, "new", "x"); err != nil {
			inserted <- err
			return
		}
		inserted <- w.Commit()
	}()
	select {
	case err := <-inserted:
		t.Fatalf("insert completed (%v) during a scan: phantom!", err)
	case <-time.After(20 * time.Millisecond):
	}
	// Scanning again sees the same (empty) state.
	kvs, err := scanner.Scan(ctx)
	if err != nil || len(kvs) != 0 {
		t.Fatalf("rescan = %v, %v", kvs, err)
	}
	if err := scanner.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-inserted; err != nil {
		t.Fatalf("insert after scan: %v", err)
	}
}

// TestConcurrentCounters is the serializability acid test: many
// goroutines increment shared counters with read-then-write
// transactions (upgrade deadlocks guaranteed); the final sums must be
// exact.
func TestConcurrentCounters(t *testing.T) {
	s := open(t)
	ctx := context.Background()
	const workers = 8
	const increments = 40
	const counters = 3
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < increments; i++ {
				key := "ctr" + strconv.Itoa(rng.Intn(counters))
				if err := s.Update(ctx, func(tx *Tx) error {
					v, _, err := tx.Get(ctx, key)
					if err != nil {
						return err
					}
					n, _ := strconv.Atoi(v)
					return tx.Put(ctx, key, strconv.Itoa(n+1))
				}); err != nil {
					errs <- fmt.Errorf("worker %d: %w", seed, err)
					return
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	total := 0
	if err := s.View(ctx, func(tx *Tx) error {
		kvs, err := tx.Scan(ctx)
		if err != nil {
			return err
		}
		for _, kv := range kvs {
			n, _ := strconv.Atoi(kv.Value)
			total += n
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if total != workers*increments {
		t.Fatalf("total = %d, want %d (lost updates!)", total, workers*increments)
	}
	st := s.Stats()
	t.Logf("stats: %+v", st)
}

func TestUpdatePropagatesUserErrors(t *testing.T) {
	s := open(t)
	sentinel := errors.New("boom")
	err := s.Update(context.Background(), func(tx *Tx) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
}

func TestUpdateRespectsContext(t *testing.T) {
	s := open(t)
	ctx, cancel := context.WithCancel(context.Background())
	blockHeld := make(chan struct{})
	release := make(chan struct{})
	go func() {
		tx := s.Begin()
		if err := tx.Put(context.Background(), "k", "x"); err != nil {
			t.Error(err)
		}
		close(blockHeld)
		<-release
		tx.Abort()
	}()
	<-blockHeld
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	err := s.Update(ctx, func(tx *Tx) error {
		_, _, err := tx.Get(ctx, "k") // blocks on the X lock
		return err
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	close(release)
}

func TestRetryBudget(t *testing.T) {
	s := Open(Options{DetectEvery: time.Millisecond, MaxRetries: 2})
	defer s.Close()
	attempts := 0
	err := s.Update(context.Background(), func(tx *Tx) error {
		attempts++
		return hwtwbg.ErrAborted // simulate perpetual victimization
	})
	if !errors.Is(err, ErrTooManyRetries) {
		t.Fatalf("err = %v", err)
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d", attempts)
	}
}

func TestLostUpdatePrevented(t *testing.T) {
	// Two transactions read the same key then both write it; strict 2PL
	// with upgrades forces one to deadlock and retry, so both updates
	// survive.
	s := open(t)
	ctx := context.Background()
	if err := s.Update(ctx, func(tx *Tx) error { return tx.Put(ctx, "n", "0") }); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Update(ctx, func(tx *Tx) error {
				v, _, err := tx.Get(ctx, "n")
				if err != nil {
					return err
				}
				n, _ := strconv.Atoi(v)
				time.Sleep(2 * time.Millisecond) // widen the window
				return tx.Put(ctx, "n", strconv.Itoa(n+1))
			}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	tx := s.Begin()
	defer tx.Abort()
	v, _, err := tx.Get(ctx, "n")
	if err != nil {
		t.Fatal(err)
	}
	if v != "2" {
		t.Fatalf("n = %q, want 2 (lost update)", v)
	}
}

func TestMetricsSnapshotAndManager(t *testing.T) {
	s := open(t)
	ctx := context.Background()
	if err := s.Update(ctx, func(tx *Tx) error {
		return tx.Put(ctx, "k", "v")
	}); err != nil {
		t.Fatal(err)
	}
	if s.Manager() == nil {
		t.Fatal("Manager() = nil")
	}
	snap := s.MetricsSnapshot()
	// The Update took IX on the root and X on the key: at least two
	// fresh requests, both granted immediately.
	if snap.Total.Fresh < 2 || snap.Total.Grants < 2 || snap.Total.Immediate < 2 {
		t.Fatalf("metrics = %+v", snap.Total)
	}
	if got := snap.Total.GrantsByMode["IX"]; got < 1 {
		t.Fatalf("IX grants = %d, want >= 1", got)
	}
	if snap.Total.GrantNs.Count != snap.Total.Grants {
		t.Fatalf("grant histogram count %d != grants %d", snap.Total.GrantNs.Count, snap.Total.Grants)
	}
}

// recordingKVTracer counts hook invocations (kv-level wiring check).
type recordingKVTracer struct {
	requests, grants, aborts atomic.Uint64
}

func (r *recordingKVTracer) OnRequest(hwtwbg.TxnID, hwtwbg.ResourceID, hwtwbg.Mode) {
	r.requests.Add(1)
}
func (r *recordingKVTracer) OnBlock(hwtwbg.TxnID, hwtwbg.ResourceID, hwtwbg.Mode, int) {}
func (r *recordingKVTracer) OnGrant(hwtwbg.TxnID, hwtwbg.ResourceID, hwtwbg.Mode, time.Duration) {
	r.grants.Add(1)
}
func (r *recordingKVTracer) OnAbort(hwtwbg.TxnID)                 { r.aborts.Add(1) }
func (r *recordingKVTracer) OnActivation(hwtwbg.ActivationReport) {}

func TestTracerOptionWired(t *testing.T) {
	tr := &recordingKVTracer{}
	s := Open(Options{DetectEvery: time.Millisecond, Tracer: tr})
	defer s.Close()
	ctx := context.Background()
	if err := s.Update(ctx, func(tx *Tx) error {
		return tx.Put(ctx, "k", "v")
	}); err != nil {
		t.Fatal(err)
	}
	if tr.requests.Load() < 2 || tr.grants.Load() < 2 {
		t.Fatalf("tracer saw requests=%d grants=%d", tr.requests.Load(), tr.grants.Load())
	}
}

func TestGetAllPutAll(t *testing.T) {
	s := open(t)
	ctx := context.Background()

	tx := s.Begin()
	if err := tx.PutAll(ctx, map[string]string{"a": "1", "b": "2", "c": "3"}); err != nil {
		t.Fatal(err)
	}
	// Read-your-writes: buffered values visible before commit, and a
	// missing key is simply absent from the result.
	got, err := tx.GetAll(ctx, "a", "b", "c", "missing")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got["a"] != "1" || got["b"] != "2" || got["c"] != "3" {
		t.Fatalf("GetAll before commit = %v", got)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Committed values through a fresh transaction; a single batch read
	// locks everything it returns.
	tx2 := s.Begin()
	got, err = tx2.GetAll(ctx, "c", "a")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got["a"] != "1" || got["c"] != "3" {
		t.Fatalf("GetAll after commit = %v", got)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}

	// Empty batches are no-ops.
	tx3 := s.Begin()
	if err := tx3.PutAll(ctx, nil); err != nil {
		t.Fatal(err)
	}
	if got, err := tx3.GetAll(ctx); err != nil || len(got) != 0 {
		t.Fatalf("empty GetAll = %v, %v", got, err)
	}
	if err := tx3.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestPutAllConflictSerializes checks the batch write path under
// contention: two Update transactions batch-writing the same keys must
// serialize (the second blocks on the first's X locks), with the retry
// loop absorbing any deadlock abort.
func TestPutAllConflictSerializes(t *testing.T) {
	s := open(t)
	ctx := context.Background()
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				err := s.Update(ctx, func(tx *Tx) error {
					return tx.PutAll(ctx, map[string]string{
						"x": strconv.Itoa(w),
						"y": strconv.Itoa(w),
					})
				})
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	tx := s.Begin()
	got, err := tx.GetAll(ctx, "x", "y")
	if err != nil {
		t.Fatal(err)
	}
	if got["x"] != got["y"] {
		t.Fatalf("batch writes interleaved: %v", got)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestUpdateUncontendedAllocs pins the allocation cost of an Update
// that commits on its first attempt: the retry loop's backoff jitter is
// drawn only when a retry actually happens, so a transaction that never
// retries pays nothing for it.
func TestUpdateUncontendedAllocs(t *testing.T) {
	s := Open(Options{Shards: 1})
	defer s.Close()
	ctx := context.Background()
	put := func(tx *Tx) error { return tx.Put(ctx, "k", "v") }
	if err := s.Update(ctx, put); err != nil { // warm the pools
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := s.Update(ctx, put); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 5 {
		t.Fatalf("uncontended Update allocates %.0f objects/run, want <= 5", allocs)
	}
}

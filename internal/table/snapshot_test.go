package table

import (
	"fmt"
	"testing"

	"hwtwbg/internal/lock"
)

// buildSnapshotFixture fills t with a mix of holders, blocked
// conversions and queue waiters across several resources.
func buildSnapshotFixture(t *testing.T, tb *Table) {
	t.Helper()
	mustReq := func(txn TxnID, rid ResourceID, m lock.Mode, wantGranted bool) {
		t.Helper()
		g, err := tb.Request(txn, rid, m)
		if err != nil {
			t.Fatalf("Request(%d, %s, %v): %v", txn, rid, m, err)
		}
		if g != wantGranted {
			t.Fatalf("Request(%d, %s, %v) granted=%v, want %v", txn, rid, m, g, wantGranted)
		}
	}
	mustReq(1, "R1", lock.IX, true)
	mustReq(2, "R1", lock.IX, true)
	mustReq(1, "R1", lock.SIX, false) // blocked conversion
	mustReq(3, "R1", lock.X, false)   // queue
	mustReq(4, "R1", lock.IS, false)  // queue behind an incompatible waiter
	mustReq(2, "R2", lock.S, true)
	mustReq(5, "R3", lock.X, true)  // T5 holds R3...
	mustReq(5, "R2", lock.X, false) // ...and then queues on R2
}

// fullCopy runs one complete indexed round over srcs (at most 8),
// copying every shard at the given epoch.
func fullCopy(s *Snapshot, srcs []*Table, epoch uint64) {
	var idx [8]int
	dirty := idx[:len(srcs)]
	s.BeginRound(len(srcs))
	for i, t := range srcs {
		s.CopyShard(t, i, epoch)
		s.FinishShard(i)
		dirty[i] = i
	}
	s.MergeShards(dirty)
}

// TestSnapshotCopyInto copies one table into a snapshot through a full
// indexed round and checks the merged table is a faithful, independent
// deep copy.
func TestSnapshotCopyInto(t *testing.T) {
	src := New()
	buildSnapshotFixture(t, src)

	s := NewSnapshot()
	fullCopy(s, []*Table{src}, 1)
	got := s.Table()

	if got.String() != src.String() {
		t.Fatalf("snapshot table differs from source:\n got:\n%s\nwant:\n%s", got.String(), src.String())
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("snapshot table invalid: %v", err)
	}
	for _, txn := range src.Txns() {
		wantRid, wantMode, wantOk := src.WaitingOn(txn)
		gotRid, gotMode, gotOk := got.WaitingOn(txn)
		if wantRid != gotRid || wantMode != gotMode || wantOk != gotOk {
			t.Errorf("WaitingOn(%d): snapshot (%s, %v, %v), source (%s, %v, %v)",
				txn, gotRid, gotMode, gotOk, wantRid, wantMode, wantOk)
		}
		if a, b := got.HeldCount(txn), src.HeldCount(txn); a != b {
			t.Errorf("HeldCount(%d): snapshot %d, source %d", txn, a, b)
		}
		if got.Upgrading(txn) != src.Upgrading(txn) {
			t.Errorf("Upgrading(%d) differs", txn)
		}
	}

	// Mutating the snapshot must not leak into the source.
	got.Abort(3)
	if src.String() == got.String() {
		t.Fatalf("aborting in the snapshot changed nothing (shared state?)")
	}
	if !src.Blocked(3) {
		t.Fatalf("source lost T3's blocked state after a snapshot-side abort")
	}
}

func TestSnapshotMergesShardedTables(t *testing.T) {
	// Two "shards": T1 holds in a and waits in b; T2 the reverse.
	a, b := New(), New()
	if g, _ := a.Request(1, "Ra", lock.X); !g {
		t.Fatal("setup: T1 should hold Ra")
	}
	if g, _ := b.Request(2, "Rb", lock.X); !g {
		t.Fatal("setup: T2 should hold Rb")
	}
	if g, _ := b.Request(1, "Rb", lock.X); g {
		t.Fatal("setup: T1 should block on Rb")
	}
	if g, _ := a.Request(2, "Ra", lock.X); g {
		t.Fatal("setup: T2 should block on Ra")
	}

	s := NewSnapshot()
	fullCopy(s, []*Table{a, b}, 1)
	got := s.Table()

	if n := got.HeldCount(1); n != 1 {
		t.Errorf("merged HeldCount(1) = %d, want 1", n)
	}
	if rid, _, ok := got.WaitingOn(1); !ok || rid != "Rb" {
		t.Errorf("merged WaitingOn(1) = (%s, %v), want (Rb, true)", rid, ok)
	}
	if rid, _, ok := got.WaitingOn(2); !ok || rid != "Ra" {
		t.Errorf("merged WaitingOn(2) = (%s, %v), want (Ra, true)", rid, ok)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("merged snapshot invalid: %v", err)
	}
}

// TestSnapshotResetReuse checks that full rounds over warm arenas are
// (nearly) allocation-free and still faithful, both when every shard is
// recopied in place (all epochs bumped) and when the snapshot was
// invalidated first and is rebuilt from its freelists (the round after
// a detector mutated it).
func TestSnapshotResetReuse(t *testing.T) {
	a, b := New(), New()
	buildSnapshotFixture(t, a)
	b.Request(20, "H1", lock.X)
	b.Request(21, "H1", lock.S) // waiter
	srcs := []*Table{a, b}
	s := NewSnapshot()

	fullCopy(s, srcs, 1)
	want := s.Table().String()
	epoch := uint64(1)
	for _, tc := range []struct {
		name  string
		reset bool
	}{{"in-place", false}, {"rebuild", true}} {
		allocs := testing.AllocsPerRun(50, func() {
			epoch++
			if tc.reset {
				s.invalidate()
			}
			fullCopy(s, srcs, epoch)
		})
		if got := s.Table().String(); got != want {
			t.Fatalf("%s: reused snapshot differs:\n got:\n%s\nwant:\n%s", tc.name, got, want)
		}
		// Map reinsertion may allocate a little; copy-out must not scale
		// allocations with table size.
		if allocs > 4 {
			t.Errorf("%s: full round allocates %.0f objects/run after warm-up, want <= 4", tc.name, allocs)
		}
	}
}

// TestSnapshotTableStableAcrossReset checks the merged table pointer
// survives rounds, including the full rebuild that follows a mutation
// through the view: detectors bind to it once.
func TestSnapshotTableStableAcrossReset(t *testing.T) {
	s := NewSnapshot()
	before := s.Table()
	src := New()
	buildSnapshotFixture(t, src)
	fullCopy(s, []*Table{src}, 1)
	s.View().Abort(3)
	fullCopy(s, []*Table{src}, 1)
	if s.Table() != before {
		t.Fatalf("Table() pointer changed across rounds; detectors bind to it once")
	}
	if !s.Table().Blocked(3) {
		t.Fatalf("round after a view mutation did not rebuild from the source")
	}
}

func TestSnapshotTornWaitKeepsFirst(t *testing.T) {
	// A torn copy can present one transaction as waiting in two source
	// tables; the merge keeps the first wait seen.
	a, b := New(), New()
	a.Request(9, "Ra", lock.X)
	a.Request(1, "Ra", lock.X) // T1 waits in a
	b.Request(8, "Rb", lock.X)
	b.Request(1, "Rb", lock.X) // and "again" in b

	s := NewSnapshot()
	fullCopy(s, []*Table{a, b}, 1)
	rid, _, ok := s.Table().WaitingOn(1)
	if !ok || rid != "Ra" {
		t.Fatalf("WaitingOn(1) = (%s, %v), want first-seen (Ra, true)", rid, ok)
	}
	// The stale queue entry in Rb remains (the validate-then-act layer
	// is what protects against acting on it), but the table must still
	// be internally consistent enough to walk.
	if r := s.Table().Resource("Rb"); r == nil || r.QueueLen() != 1 {
		t.Fatalf("Rb queue not copied")
	}
}

// TestSnapshotShardCleanEpoch pins the skip decision: a sub is clean
// only when it holds a copy taken at exactly the source's current
// epoch, and detector-side mutation invalidates every sub at the next
// BeginRound.
func TestSnapshotShardCleanEpoch(t *testing.T) {
	a, b := New(), New()
	a.Request(1, "Ra", lock.X)
	b.Request(2, "Rb", lock.X)
	b.Request(3, "Rb", lock.X) // T3 waits, so an abort has something to mutate

	s := NewSnapshot()
	s.BeginRound(2)
	if s.ShardClean(0, 0) || s.ShardClean(1, 0) {
		t.Fatal("fresh subs report clean")
	}
	fullCopy(s, []*Table{a, b}, 3)
	if !s.ShardClean(0, 3) || !s.ShardClean(1, 3) {
		t.Fatal("copied subs not clean at their copy epoch")
	}
	if s.ShardClean(0, 4) {
		t.Fatal("sub clean at an epoch it was not copied at")
	}

	// A detector mutation (abort applied to the snapshot) poisons every
	// sub: the next round must recopy from scratch.
	s.View().Abort(2)
	s.BeginRound(2)
	if s.ShardClean(0, 3) || s.ShardClean(1, 3) {
		t.Fatal("subs still clean after a snapshot-side mutation")
	}
	fullCopy(s, []*Table{a, b}, 4)
	if got, want := s.Table().String(), func() string {
		ref := NewSnapshot()
		fullCopy(ref, []*Table{a, b}, 4)
		return ref.Table().String()
	}(); got != want {
		t.Fatalf("recopy after mutation differs:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestSnapshotIncrementalSkipReuse checks the tentpole path: after a
// full round, mutating only one source shard and recopying only it
// yields a merged table byte-identical to a full recopy, and the
// untouched shard's records are reused in place (same pointers).
func TestSnapshotIncrementalSkipReuse(t *testing.T) {
	cold, hot := New(), New()
	buildSnapshotFixture(t, cold)
	hot.Request(20, "H1", lock.X)
	hot.Request(21, "H1", lock.X) // waiter

	s := NewSnapshot()
	fullCopy(s, []*Table{cold, hot}, 1)
	coldRes := s.Table().Resource("R1")
	if coldRes == nil {
		t.Fatal("cold shard's R1 missing from the merge")
	}

	// Mutate the hot shard only: the waiter leaves, a new resource and a
	// new waiter arrive.
	hot.Abort(21)
	hot.Request(22, "H2", lock.X)
	hot.Request(23, "H1", lock.S) // blocks behind T20's X

	// Incremental round: shard 0 is clean at epoch 1 and skipped; only
	// shard 1 is recopied at its new epoch.
	s.BeginRound(2)
	if !s.ShardClean(0, 1) {
		t.Fatal("cold shard not clean")
	}
	if s.ShardClean(1, 2) {
		t.Fatal("hot shard clean at a bumped epoch")
	}
	s.CopyShard(hot, 1, 2)
	s.FinishShard(1)
	s.MergeShards([]int{1})

	ref := NewSnapshot()
	fullCopy(ref, []*Table{cold, hot}, 2)
	if got, want := s.Table().String(), ref.Table().String(); got != want {
		t.Fatalf("incremental merge differs from full copy:\n got:\n%s\nwant:\n%s", got, want)
	}
	if err := s.Table().Validate(); err != nil {
		t.Fatalf("incremental merge invalid: %v", err)
	}
	if s.Table().Resource("R1") != coldRes {
		t.Fatal("skipped shard's resource was recopied, not reused in place")
	}
	if rid, _, ok := s.Table().WaitingOn(23); !ok || rid != "H1" {
		t.Fatalf("WaitingOn(23) = (%s, %v), want (H1, true)", rid, ok)
	}
	if s.Table().Blocked(21) {
		t.Fatal("aborted waiter survived the incremental recopy")
	}
}

// TestSnapshotIncrementalDeletes drives the two-pointer diff in the
// delete direction: resources and transactions that vanish from a
// recopied shard must vanish from the merge.
func TestSnapshotIncrementalDeletes(t *testing.T) {
	a, b := New(), New()
	a.Request(1, "Ra", lock.S)
	b.Request(2, "Rb1", lock.X)
	b.Request(2, "Rb2", lock.X)
	b.Request(3, "Rb1", lock.S) // waiter

	s := NewSnapshot()
	fullCopy(s, []*Table{a, b}, 1)
	if s.Table().Resource("Rb2") == nil || !s.Table().Blocked(3) {
		t.Fatal("setup: first round incomplete")
	}

	b.Abort(3) // waiter leaves: Rb1 queue empties
	b.Abort(2) // holder leaves: Rb1 and Rb2 disappear entirely

	s.BeginRound(2)
	s.CopyShard(b, 1, 2)
	s.FinishShard(1)
	s.MergeShards([]int{1})

	if r := s.Table().Resource("Rb1"); r != nil {
		t.Fatalf("Rb1 survived its last holder: %v", r)
	}
	if r := s.Table().Resource("Rb2"); r != nil {
		t.Fatalf("Rb2 survived its last holder: %v", r)
	}
	if s.Table().HeldCount(2) != 0 || s.Table().Blocked(3) {
		t.Fatal("aborted transactions survived the incremental merge")
	}
	if s.Table().HeldCount(1) != 1 {
		t.Fatal("skipped shard's holder lost")
	}
	if err := s.Table().Validate(); err != nil {
		t.Fatalf("post-delete merge invalid: %v", err)
	}
}

// TestSnapshotViewActiveFilter checks the W-edge pre-filter: the
// detection view iterates only resources that can contribute graph
// elements (a queue or a blocked conversion), while the merged table
// itself still holds everything.
func TestSnapshotViewActiveFilter(t *testing.T) {
	quiet, busy := New(), New()
	quiet.Request(1, "Q1", lock.S) // held, nobody waiting
	quiet.Request(2, "Q2", lock.X) // held, nobody waiting
	busy.Request(3, "B1", lock.X)
	busy.Request(4, "B1", lock.S) // waiter -> active

	s := NewSnapshot()
	fullCopy(s, []*Table{quiet, busy}, 1)

	if s.ShardHadWaiters(0) {
		t.Fatal("quiet shard reports waiters")
	}
	if !s.ShardHadWaiters(1) {
		t.Fatal("busy shard reports no waiters")
	}
	var seen []ResourceID
	s.View().EachResource(func(r *Resource) bool {
		seen = append(seen, r.ID())
		return true
	})
	if len(seen) != 1 || seen[0] != "B1" {
		t.Fatalf("view iterated %v, want just the active B1", seen)
	}
	// The full merge still knows the quiet resources — audits and
	// validation read the table, not the filtered view.
	if s.Table().Resource("Q1") == nil || s.Table().Resource("Q2") == nil {
		t.Fatal("quiet resources missing from the merged table")
	}

	// Draining the busy queue and recopying must empty the view.
	busy.Abort(4)
	s.BeginRound(2)
	s.CopyShard(busy, 1, 2)
	s.FinishShard(1)
	s.MergeShards([]int{1})
	n := 0
	s.View().EachResource(func(*Resource) bool { n++; return true })
	if n != 0 {
		t.Fatalf("view iterated %d resources after the last waiter left, want 0", n)
	}
}

// TestSnapshotIncrementalRoundAllocs extends the arena-reuse guarantee
// to the incremental round shape: steady-state rounds that recopy one
// dirty shard out of several allocate (nearly) nothing.
func TestSnapshotIncrementalRoundAllocs(t *testing.T) {
	cold, hot := New(), New()
	buildSnapshotFixture(t, cold)
	hot.Request(30, "H1", lock.X)

	s := NewSnapshot()
	fullCopy(s, []*Table{cold, hot}, 1)
	epoch := uint64(1)
	dirty := []int{1}
	allocs := testing.AllocsPerRun(50, func() {
		epoch++
		hot.Request(31, "H1", lock.S)
		hot.Abort(31)
		s.BeginRound(2)
		s.CopyShard(hot, 1, epoch)
		s.FinishShard(1)
		s.MergeShards(dirty)
	})
	if allocs > 4 {
		t.Errorf("incremental round allocates %.0f objects/run after warm-up, want <= 4", allocs)
	}
}

// BenchmarkSnapshotCopyInto prices a full indexed round over one warm
// table: every iteration is a new epoch, so the shard is recopied in
// place and re-merged.
func BenchmarkSnapshotCopyInto(b *testing.B) {
	src := New()
	for i := 0; i < 64; i++ {
		rid := ResourceID(fmt.Sprintf("R%02d", i))
		src.Request(TxnID(i+1), rid, lock.S)
		src.Request(TxnID(i+65), rid, lock.S)
		src.Request(TxnID(i+129), rid, lock.X) // one waiter per resource
	}
	s := NewSnapshot()
	srcs := []*Table{src}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fullCopy(s, srcs, uint64(i+1))
	}
}

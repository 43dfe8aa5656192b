package hwtwbg

import (
	"runtime"
	"sync"
	"time"

	"hwtwbg/internal/detect"
)

// The snapshot detector is the manager's one activation path, and its
// answer to the stop-the-world pause: instead of freezing every shard
// for the whole activation, it copies each shard's lock table into a reusable
// arena under only that shard's mutex — each held just long enough to
// copy — and runs the paper's Steps 1–3 over the merged snapshot with
// no shard locks held at all. Because the copies are taken at
// different instants the merged view can be torn, so the algorithm's
// output is treated as a set of *candidates*: each resolution carries
// its cycle's edge evidence, which is re-verified against the live
// shards (under only the shards that cycle touches) before the TDR-1
// abort or TDR-2 repositioning is applied. Candidates whose evidence
// no longer holds are dropped and counted as false cycles. See
// validate.go for why a cycle that verifies live is always a real
// deadlock.
//
// The copy-out is incremental: every mutating mutex round bumps its shard's epoch counter, and a
// shard whose epoch is unchanged since the detector's previous copy is
// not recopied — its sub-arena is reused in place — while the dirty
// shards are copied concurrently across a bounded worker pool. The
// epoch is loaded without the shard mutex, so a copy decision can be
// one round stale; that only widens the tearing the validate-then-act
// replay already absorbs (DESIGN.md §13 states the argument in full).

// snapCopy summarizes one activation's copy phase.
type snapCopy struct {
	acquire, copied, maxHold time.Duration
	dirty, skipped           int
}

// maxCopyWorkers bounds the copy worker pool, and minParallelCopy is
// the dirty-shard count below which spawning workers costs more than
// the copies.
const (
	maxCopyWorkers  = 8
	minParallelCopy = 4
)

// copyWorkers picks the worker-pool width for copying n dirty shards.
func copyWorkers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > maxCopyWorkers {
		w = maxCopyWorkers
	}
	if w > n {
		w = n
	}
	if n < minParallelCopy || w < 2 {
		return 1
	}
	return w
}

// copySnapshot fills the snapshot for one activation: pick the dirty
// shards, copy each under its own mutex — concurrently when there are
// enough — and merge.
// Caller holds detMu. Per-shard timing (acquire/hold split, max hold)
// is taken only when an ActivationReport consumer exists; otherwise the
// whole phase is two clock reads attributed to Copy.
func (m *Manager) copySnapshot() snapCopy {
	var cp snapCopy
	n := len(m.shards)
	m.snap.BeginRound(n)
	dirty := m.dirtyScratch[:0]
	for i, s := range m.shards {
		if m.snap.ShardClean(i, s.epoch.load()) {
			cp.skipped++
		} else {
			dirty = append(dirty, i)
		}
	}
	m.dirtyScratch = dirty
	cp.dirty = len(dirty)
	if len(dirty) == 0 {
		return cp
	}
	if workers := copyWorkers(len(dirty)); workers == 1 {
		cp.acquire, cp.copied, cp.maxHold = m.copyShards(dirty)
	} else {
		var tm [maxCopyWorkers]struct{ acquire, copied, maxHold time.Duration }
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo, hi := w*len(dirty)/workers, (w+1)*len(dirty)/workers
			wg.Add(1)
			go func(w int, part []int) {
				defer wg.Done()
				tm[w].acquire, tm[w].copied, tm[w].maxHold = m.copyShards(part)
			}(w, dirty[lo:hi])
		}
		wg.Wait()
		for w := 0; w < workers; w++ {
			cp.acquire += tm[w].acquire
			cp.copied += tm[w].copied
			if tm[w].maxHold > cp.maxHold {
				cp.maxHold = tm[w].maxHold
			}
		}
	}
	// Sorting and merging run with no shard locks held; their cost is
	// part of producing the snapshot, so it counts toward Copy.
	mstart := time.Now()
	for _, i := range dirty {
		m.snap.FinishShard(i)
	}
	m.snap.MergeShards(dirty)
	cp.copied += time.Since(mstart)
	return cp
}

// copyShards copies the listed shards into the snapshot, each under its
// own mutex, returning the phase timing. With per-shard sampling on,
// acquire/hold are split by chaining two clock reads per shard (one
// after Lock, one after Unlock — the previous shard's post-unlock read
// doubles as this shard's pre-lock instant); otherwise the whole loop
// is timed as one block attributed to the copy (hold unsampled).
func (m *Manager) copyShards(idx []int) (acquire, copied, maxHold time.Duration) {
	if !m.holdSample {
		t0 := time.Now()
		for _, i := range idx {
			s := m.shards[i]
			s.mu.Lock()
			m.snap.CopyShard(s.tb, i, s.epoch.load())
			s.mu.Unlock()
		}
		return 0, time.Since(t0), 0
	}
	prev := time.Now()
	for _, i := range idx {
		s := m.shards[i]
		s.mu.Lock()
		t1 := time.Now()
		m.snap.CopyShard(s.tb, i, s.epoch.load())
		s.mu.Unlock()
		t2 := time.Now()
		acquire += t1.Sub(prev)
		hold := t2.Sub(t1)
		copied += hold
		if hold > maxHold {
			maxHold = hold
		}
		prev = t2
	}
	return acquire, copied, maxHold
}

// detectSnapshot is one activation. Caller holds detMu.
func (m *Manager) detectSnapshot() Stats {
	start := time.Now()
	cp := m.copySnapshot()
	if hook := m.testHookAfterCopy; hook != nil {
		hook()
	}
	pre := m.auditPreSnapshot()
	res := m.det.Run()
	vstart := time.Now()
	out := m.applyResolutions(res.Resolutions)
	m.auditPostSnapshot(pre, res)
	now := time.Now()

	rep := ActivationReport{
		Time:           now,
		Acquire:        cp.acquire,
		Copy:           cp.copied,
		Build:          res.BuildTime,
		Search:         res.SearchTime,
		Resolve:        res.ResolveTime,
		Validate:       now.Sub(vstart),
		Total:          now.Sub(start),
		MaxShardHold:   cp.maxHold,
		Vertices:       res.Vertices,
		Edges:          res.Edges,
		EdgeVisits:     res.EdgeVisits,
		CyclesSearched: res.CyclesSearched,
		Aborted:        len(out.aborted),
		Repositioned:   len(out.repositioned),
		Salvaged:       len(out.salvaged),
		FalseCycles:    out.falseCycles,
		ShardsCopied:   cp.dirty,
		ShardsSkipped:  cp.skipped,
	}
	events := make([]Event, 0, len(out.aborted)+len(out.repositioned)+len(out.salvaged))
	for _, v := range out.aborted {
		events = append(events, Event{Time: now, Kind: EventVictim, Txn: v})
	}
	for _, rp := range out.repositioned {
		events = append(events, Event{Time: now, Kind: EventReposition, Txn: rp.Victim, Resource: rp.Resource})
	}
	for _, v := range out.salvaged {
		events = append(events, Event{Time: now, Kind: EventSalvage, Txn: v})
	}
	return m.recordActivation(rep, cp.maxHold, out.validations, out.aborted, events, out.applied)
}

// replayOutcome summarizes the live replay of one snapshot activation's
// resolutions.
type replayOutcome struct {
	aborted      []TxnID             // victims actually aborted, in application order
	repositioned []detect.Resolution // TDR-2 resolutions applied live
	salvaged     []TxnID             // victims that needed no action after all
	applied      []detect.Resolution // every resolution validated and acted on, with its cycle evidence
	falseCycles  int
	validations  int
}

// applyResolutions replays the snapshot detector's resolutions against
// the live shards, re-validating each one first. The replay reproduces
// the order of a stop-the-world activation (the algorithm run directly
// over the frozen live tables) on an unchanged state, so the two make
// identical decisions whenever the world happens to be quiescent:
//
//  1. discovery order — validate each cycle and apply TDR-2 queue
//     surgeries immediately (Step 2 repositions as it walks, and a
//     later cycle's evidence may assume an earlier repositioning);
//  2. reverse discovery order — abort the confirmed TDR-1 victims
//     (Step 3 processes its abortion list most recent first), skipping
//     any whose request a previous abort already granted (salvage);
//  3. discovery order — schedule each repositioned queue (Step 3's
//     change-list pass), waking the newly granted requests.
//
// Resolutions the snapshot's own Step 3 already salvaged need no live
// action (an earlier abort in the same activation unblocks the victim
// here exactly as it did in the snapshot).
func (m *Manager) applyResolutions(rs []detect.Resolution) replayOutcome {
	var out replayOutcome
	if len(rs) == 0 {
		return out
	}
	confirmed := make([]bool, len(rs))
	var idx []uint32
	for i := range rs {
		r := &rs[i]
		if r.Salvaged {
			out.salvaged = append(out.salvaged, r.Victim)
			continue
		}
		idx = m.cycleShards(idx, r.Cycle)
		m.lockShards(idx)
		out.validations++
		ok := m.cycleHolds(r.Cycle)
		if ok && r.TDR2 {
			ok = m.tdr2Holds(r)
			if ok {
				sh := m.shardFor(r.Resource)
				sh.tb.RepositionAVST(r.Resource, r.Victim)
				sh.epoch.bump()
			}
		}
		m.unlockShards(idx)
		if !ok {
			out.falseCycles++
			continue
		}
		if r.TDR2 {
			out.repositioned = append(out.repositioned, *r)
			out.applied = append(out.applied, *r)
		} else {
			confirmed[i] = true
		}
	}
	for i := len(rs) - 1; i >= 0; i-- {
		if !confirmed[i] {
			continue
		}
		if m.abortVictim(&rs[i]) {
			out.aborted = append(out.aborted, rs[i].Victim)
			out.applied = append(out.applied, rs[i])
		} else {
			out.salvaged = append(out.salvaged, rs[i].Victim)
		}
	}
	for i := range out.repositioned {
		rid := out.repositioned[i].Resource
		s := m.shardFor(rid)
		s.mu.Lock()
		s.wakeGrants(s.tb.ScheduleQueue(rid))
		s.epoch.bump()
		s.mu.Unlock()
	}
	return out
}

// waitResource returns the resource inducing the victim's incoming
// cycle edge — the resource the victim is blocked on, whose shard
// therefore also holds its waiter channel. Every cycle vertex has
// exactly one incoming cycle edge.
func waitResource(r *detect.Resolution) ResourceID {
	for _, e := range r.Cycle {
		if e.To == r.Victim {
			return e.Resource
		}
	}
	return ""
}

// abortVictim applies one confirmed TDR-1 resolution. Under the cycle's
// shard locks it checks the victim is still blocked (Step 3's salvage
// condition: an earlier abort in this same replay may have granted its
// request) and, if so, condemns it, removes it from the locked shards
// — which always include the one it is blocked in, so the cascaded
// grants and the victim's own wake-up happen atomically with the
// decision — and then sweeps the remaining shards one at a time for
// locks the victim holds elsewhere (the abortTables discipline: safe
// because an aborted transaction never blocks again, so the
// intermediate states cannot look like a deadlock). Reports whether the
// victim was actually aborted.
func (m *Manager) abortVictim(r *detect.Resolution) bool {
	victim := r.Victim
	ws := m.shardFor(waitResource(r))
	idx := m.cycleShards(nil, r.Cycle)
	m.lockShards(idx)
	if !ws.tb.Blocked(victim) {
		m.unlockShards(idx)
		return false
	}
	m.condemned.Store(victim, struct{}{})
	for _, i := range idx {
		s := m.shards[i]
		s.wakeGrants(s.tb.Abort(victim))
		s.epoch.bump()
	}
	ws.wake(victim)
	m.unlockShards(idx)
	for i, s := range m.shards {
		if containsIdx(idx, uint32(i)) {
			continue
		}
		s.mu.Lock()
		// Only an actual removal dirties the shard; most of this sweep
		// finds nothing of the victim.
		if s.tb.HeldCount(victim) > 0 || s.tb.Blocked(victim) {
			s.wakeGrants(s.tb.Abort(victim))
			s.epoch.bump()
		}
		s.mu.Unlock()
	}
	return true
}

// containsIdx reports whether the sorted index set holds i.
func containsIdx(idx []uint32, i uint32) bool {
	for _, v := range idx {
		if v == i {
			return true
		}
		if v > i {
			return false
		}
	}
	return false
}

package hwtwbg

// Reference activations for the comparison tests. The manager has one
// detector path — copy each shard out, run the algorithm over the
// snapshot, validate-then-act — and these are the two independent ways
// the tests check it against:
//
//   - the stop-the-world oracle runs the paper's Steps 1–3 directly over
//     the live shard tables while every shard mutex is held, so it needs
//     no snapshot, no validation and no epoch bookkeeping: on a quiesced
//     state it is the definition of the right answer;
//   - the all-dirty activation bumps every shard's mutation epoch before
//     running the production activation, forcing a full copy-out through
//     the same machinery, so incremental shard reuse can be compared
//     against a recopy of everything.

import (
	"time"

	"hwtwbg/internal/detect"
	"hwtwbg/internal/table"
)

// stwOracle is a Manager whose Detect runs the stop-the-world reference
// activation instead of the production one. Everything else (Lock,
// Snapshot, History, Close, ...) is the embedded Manager's.
type stwOracle struct {
	*Manager
	det *detect.Detector
}

// openSTW opens a manager driven by the stop-the-world oracle. The
// background loop would run the production activation, so opts.Period
// must be zero; tests that want periodic activations tick Detect
// themselves.
func openSTW(opts Options) *stwOracle {
	if opts.Period != 0 {
		panic("openSTW: the oracle has no background loop; drive Detect from the test")
	}
	m := Open(opts)
	cost := opts.Cost
	if cost == nil {
		cost = func(id TxnID) float64 { return float64(m.mt.heldCount(id) + 1) }
	}
	return &stwOracle{Manager: m, det: detect.New(m.mt, detect.Config{Cost: cost, DisableTDR2: opts.DisableTDR2})}
}

// Detect runs one stop-the-world activation: take every shard lock in
// index order, run the algorithm over the merged live tables, apply the
// wakes and release. The report keeps the stop-the-world accounting:
// no Copy or Validate phase, Wake covers waking and releasing, and the
// grant-path stall (MaxShardHold, Stats.STW*) is the whole pause.
func (o *stwOracle) Detect() Stats {
	m := o.Manager
	m.detMu.Lock()
	defer m.detMu.Unlock()
	if m.closed.Load() {
		return Stats{}
	}
	start := time.Now()
	m.stopTheWorld()
	acquired := time.Now()
	pre := o.auditPreSTW()
	res := o.det.Run()
	resolved := time.Now()
	for _, v := range res.Aborted {
		m.condemned.Store(v, struct{}{})
		for _, s := range m.shards {
			s.wake(v)
		}
	}
	for _, g := range res.Granted {
		m.shardFor(g.Resource).wake(g.Txn)
	}
	o.auditPostSTW(pre, res)
	m.resumeTheWorld()
	now := time.Now()
	pause := now.Sub(start)

	rep := ActivationReport{
		Time:           now,
		Acquire:        acquired.Sub(start),
		Build:          res.BuildTime,
		Search:         res.SearchTime,
		Resolve:        res.ResolveTime,
		Wake:           now.Sub(resolved),
		Total:          pause,
		MaxShardHold:   pause,
		Vertices:       res.Vertices,
		Edges:          res.Edges,
		EdgeVisits:     res.EdgeVisits,
		CyclesSearched: res.CyclesSearched,
		Aborted:        len(res.Aborted),
		Repositioned:   len(res.Repositioned),
		Salvaged:       len(res.Salvaged),
	}
	events := make([]Event, 0, len(res.Aborted)+len(res.Repositioned)+len(res.Salvaged))
	for _, v := range res.Aborted {
		events = append(events, Event{Time: now, Kind: EventVictim, Txn: v})
	}
	for _, rp := range res.Repositioned {
		events = append(events, Event{Time: now, Kind: EventReposition, Txn: rp.Junction, Resource: rp.Resource})
	}
	for _, sv := range res.Salvaged {
		events = append(events, Event{Time: now, Kind: EventSalvage, Txn: sv})
	}
	return m.recordActivation(rep, pause, 0, res.Aborted, events, res.Resolutions)
}

// detectAllDirty runs one production activation with every shard
// forced dirty: each shard's epoch is bumped under its own mutex, so no
// previous copy is reusable and the whole table is recopied.
func detectAllDirty(m *Manager) Stats {
	for _, s := range m.shards {
		s.mu.Lock()
		s.epoch.bump()
		s.mu.Unlock()
	}
	return m.Detect()
}

// Activation labels, as the invariant auditor tags its reports.
const (
	labelSTW      = "stw"
	labelSnapshot = "snapshot"
)

// openLabelled opens a manager driven by the labelled activation —
// labelSTW for the stop-the-world oracle, labelSnapshot for the
// production path — and returns it with that activation.
func openLabelled(label string, opts Options) (*Manager, func() Stats) {
	if label == labelSTW {
		o := openSTW(opts)
		return o.Manager, o.Detect
	}
	m := Open(opts)
	return m, m.Detect
}

// The oracle's detector drives the merged live tables through the full
// detect.Table interface; the methods beyond the read-only view the
// manager itself needs live here.

// Resource dispatches to the owning shard.
func (mt *multiTable) Resource(rid table.ResourceID) *table.Resource {
	return mt.shardTable(rid).Resource(rid)
}

// WaitingOn finds the (at most one) shard in which txn is blocked.
func (mt *multiTable) WaitingOn(txn table.TxnID) (table.ResourceID, Mode, bool) {
	for _, s := range mt.shards {
		if rid, bm, ok := s.tb.WaitingOn(txn); ok {
			return rid, bm, true
		}
	}
	return "", NL, false
}

// PeekAVST dispatches to the owning shard.
func (mt *multiTable) PeekAVST(rid table.ResourceID, j table.TxnID) (av, st []table.QueueEntry) {
	return mt.shardTable(rid).PeekAVST(rid, j)
}

// RepositionAVST dispatches the TDR-2 queue surgery to the owning shard.
func (mt *multiTable) RepositionAVST(rid table.ResourceID, j table.TxnID) (av, st []table.QueueEntry) {
	s := mt.shardFor(rid)
	s.epoch.bump()
	return s.tb.RepositionAVST(rid, j)
}

// Abort removes txn from every shard it touches, collecting the grants.
func (mt *multiTable) Abort(txn table.TxnID) []table.Grant {
	var grants []table.Grant
	for _, s := range mt.shards {
		if s.tb.HeldCount(txn) == 0 && !s.tb.Blocked(txn) {
			continue // nothing of txn here; keep the shard's epoch clean
		}
		gs := s.tb.Abort(txn)
		grants = append(grants, gs...)
		s.countGrants(gs)
		s.epoch.bump()
	}
	return grants
}

// ScheduleQueue dispatches to the owning shard.
func (mt *multiTable) ScheduleQueue(rid table.ResourceID) []table.Grant {
	s := mt.shardFor(rid)
	gs := s.tb.ScheduleQueue(rid)
	s.countGrants(gs)
	s.epoch.bump()
	return gs
}

// heldCount sums txn's holder entries across shards; the oracle's
// default victim-cost metric (locks held + 1) is priced with it.
func (mt *multiTable) heldCount(txn table.TxnID) int {
	n := 0
	for _, s := range mt.shards {
		n += s.tb.HeldCount(txn)
	}
	return n
}

func (mt *multiTable) shardFor(rid table.ResourceID) *shard {
	return mt.shards[shardIndex(rid, uint32(len(mt.shards)-1))]
}

func (mt *multiTable) shardTable(rid table.ResourceID) *table.Table {
	return mt.shardFor(rid).tb
}

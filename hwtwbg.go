// Package hwtwbg is a deadlock-detecting lock manager for Go programs,
// implementing Young-Chul Park's periodic deadlock detection and
// resolution algorithm over the Holder/Waiter Transaction Waited-By
// Graph (H/W-TWBG, Univ. of Ulsan Journal of Engineering Research 1991 /
// ICDE 1992 line of work).
//
// The manager provides strict two-phase locking with the five multiple-
// granularity lock modes (IS, IX, S, SIX, X), first-in-first-out
// scheduling with lock conversions, and a background detector that
// periodically finds every deadlock and resolves each one either by
// aborting a minimum-cost victim (TDR-1) or — uniquely to this
// algorithm — by repositioning queued requests so that nobody at all is
// aborted (TDR-2).
//
// The concurrent facade is sharded: resources are hash-striped over S
// independent lock tables (Options.Shards, default derived from
// GOMAXPROCS), each with its own mutex, so transactions touching
// different resources proceed in parallel on different cores. The
// periodic detector copies each shard out under that shard's mutex alone
// (recopying only shards mutated since its last activation), runs the
// paper's algorithm over the merged snapshot with no shard lock held,
// and re-validates every TDR-1/TDR-2 resolution against the live shards
// before applying it — so cross-shard deadlocks are found and resolved
// exactly as a single-table manager would, without ever stopping the
// world, at a cost paid once per period rather than on every operation.
//
// Typical use:
//
//	lm := hwtwbg.Open(hwtwbg.Options{Period: 50 * time.Millisecond})
//	defer lm.Close()
//
//	t := lm.Begin()
//	if err := t.Lock(ctx, "accounts/42", hwtwbg.X); err != nil {
//	    // hwtwbg.ErrAborted: this transaction was chosen as a deadlock
//	    // victim; roll back and retry.
//	}
//	// ... do the work ...
//	t.Commit()
//
// Lock blocks until the lock is granted, the context is cancelled, or
// the transaction is sacrificed to break a deadlock. All methods are
// safe for concurrent use.
package hwtwbg

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hwtwbg/internal/audit"
	"hwtwbg/internal/detect"
	"hwtwbg/internal/lock"
	"hwtwbg/internal/table"
	"hwtwbg/internal/twbg"
	"hwtwbg/journal"
)

// AuditReport is one activation's runtime-invariant audit outcome; see
// Options.Audit. AuditViolation is one broken invariant within it.
type (
	AuditReport    = audit.Report
	AuditViolation = audit.Violation
)

// auditReportCap bounds the audit-report ring kept by AuditReports.
const auditReportCap = 256

// Mode is a lock mode; see the Comp and Conv tables of the MGL protocol.
type Mode = lock.Mode

// The six lock modes.
const (
	NL  = lock.NL
	IS  = lock.IS
	IX  = lock.IX
	SIX = lock.SIX
	S   = lock.S
	X   = lock.X
)

// Comp reports whether two lock modes are compatible (Table 1 of the
// paper).
func Comp(a, b Mode) bool { return lock.Comp(a, b) }

// Conv returns the combined mode after converting a granted lock to
// additionally cover a requested mode (Table 2 of the paper).
func Conv(granted, requested Mode) Mode { return lock.Conv(granted, requested) }

// ParseMode converts "IS", "IX", "S", "SIX", "X" or "NL" to a Mode.
func ParseMode(s string) (Mode, error) { return lock.Parse(s) }

// TxnID identifies a transaction.
type TxnID = table.TxnID

// ResourceID identifies a lockable resource.
type ResourceID = table.ResourceID

// Errors returned by the manager.
var (
	// ErrAborted: the transaction was aborted — either chosen as a
	// deadlock victim or cancelled mid-wait — and holds nothing.
	ErrAborted = errors.New("hwtwbg: transaction aborted")
	// ErrDone: the transaction already committed or aborted.
	ErrDone = errors.New("hwtwbg: transaction already finished")
	// ErrClosed: the manager has been closed.
	ErrClosed = errors.New("hwtwbg: manager closed")
)

// Background-detector scheduling strategies; see Options.Scheduling.
const (
	// SchedulingFixed (also selected by "") re-runs the detector every
	// Options.Period, unconditionally.
	SchedulingFixed = "fixed"
	// SchedulingCostModel derives the period from the online cost model
	// (Ling/Chen/Chiang): T* = sqrt(2·D̂/(λ̂·ρ̂)) from the measured
	// deadlock formation rate, detection cost and deadlock persistence
	// cost, clamped to [Period/8 (≥100µs), MaxPeriod]. See CostModel.
	SchedulingCostModel = "costmodel"
)

// Options configures a Manager.
type Options struct {
	// Period is the detection interval. Zero disables the background
	// detector; call Detect manually.
	Period time.Duration
	// Scheduling selects how the background detector's period evolves
	// between activations: SchedulingFixed (default, also chosen by "")
	// or SchedulingCostModel (the Ling/Chen/Chiang cost-minimizing
	// period, derived online; see CostModel). It has no effect when
	// Period is zero. CurrentPeriod reports the live value.
	Scheduling string
	// MaxPeriod caps the cost-model period (default 8×Period).
	MaxPeriod time.Duration
	// Shards is the number of lock-table stripes, rounded up to a power
	// of two. Zero derives it from runtime.GOMAXPROCS(0). One shard
	// reproduces the serial facade (every resource behind one mutex).
	Shards int
	// Cost prices victim candidates. Nil selects the built-in metric
	// (locks held + 1), so younger transactions die first. Cost is
	// called while the algorithm runs over the detector's snapshot:
	// under the manager's detector mutex, with no shard mutex held, so
	// the live tables may already have moved on. It must not call back
	// into the Manager.
	Cost func(TxnID) float64
	// DisableTDR2 turns off resolution-by-repositioning; every deadlock
	// is then resolved by aborting a victim.
	DisableTDR2 bool
	// OnVictim, if non-nil, is called (outside all manager locks) with
	// the id of every transaction aborted by the detector.
	OnVictim func(TxnID)
	// Tracer, if non-nil, receives lifecycle hooks: requests, blocks,
	// grants, aborts and detector activations. Hooks fire outside the
	// shard mutexes (the OnVictim discipline); see Tracer.
	Tracer Tracer
	// HistorySize bounds both the deadlock-event history returned by
	// History and the activation-report ring returned by Activations
	// (default 128; negative disables recording).
	HistorySize int
	// JournalSize is the flight recorder's capacity in records per ring
	// (one lock-free ring per shard plus a control ring for lifecycle and
	// detector events), rounded up to a power of two. Zero selects the
	// default (4096 records per ring); negative disables the journal
	// entirely. The recorder overwrites oldest-first and its hot-path
	// writes never allocate or block, so leaving it on costs a few dozen
	// nanoseconds per lock event; see Journal.
	JournalSize int
	// Audit arms the runtime invariant auditor: after every detector
	// activation the paper's proved properties are re-verified from
	// scratch against the tables and the resolutions the detector
	// reported (see internal/audit). The auditor only exists in builds
	// tagged `invariants` — in a plain build this field is accepted but
	// inert — and it is expensive (it re-runs the reachability oracle per
	// activation), so it is meant for tests, never production.
	Audit bool

	// Test hooks (package-internal; zero values select production
	// behavior). schedTick replaces the background loop's timer — the
	// loop runs one activation per value received, so tests drive the
	// scheduler without wall-clock sleeps. schedNotify, when non-nil,
	// receives the period chosen after each background activation
	// (non-blocking send; size the channel for the ticks driven). now
	// replaces the cost model's clock.
	schedTick   <-chan time.Time
	schedNotify chan<- time.Duration
	now         func() time.Time
}

// Stats accumulates detector activity over the manager's lifetime.
type Stats struct {
	Runs           int // detector activations
	CyclesSearched int // cycles found and resolved (the paper's c', summed)
	Aborted        int // victims aborted
	Repositioned   int // deadlocks resolved without any abort (TDR-2)
	Salvaged       int // victims rescued at Step 3 because an earlier abort unblocked them

	// FalseCycles counts resolutions dropped at validation because the
	// cycle seen in the (possibly torn) snapshot no longer held against
	// the live shards; nothing was aborted or repositioned for them.
	FalseCycles int
	// Validations counts validate-then-act attempts (applied + dropped).
	Validations int

	// ShardsCopied and ShardsSkipped count, across activations, the
	// shards recopied into the snapshot versus reused because their
	// mutation epoch was unchanged since the previous copy.
	ShardsCopied  int
	ShardsSkipped int

	// STWTotal/STWLast/STWMax record the worst stall an activation
	// imposes on the grant path: the longest time any single shard mutex
	// was held for copy-out (the detector never stops the world; the
	// names predate the snapshot detector). Total accumulates across
	// activations, Last and Max are the most recent and worst
	// single-activation values; in the Stats returned by one Detect call
	// all three are that activation's stall.
	STWTotal time.Duration
	STWLast  time.Duration
	STWMax   time.Duration
}

// ShardStat describes one shard's lifetime activity.
type ShardStat struct {
	Grants        uint64 // lock requests granted by this shard (immediate and hand-off)
	MutexAcquires uint64 // hot-path shard-mutex rounds (lock/commit/abort/wake re-checks)
	FlatCombined  uint64 // published requests applied by a combiner's drain
}

// ActivationReport decomposes one detector activation: when it ran,
// what each phase cost, and what the algorithm saw and did. The most
// recent reports are kept in a ring (see Activations) alongside the
// deadlock-event history, and each report is handed to Options.Tracer's
// OnActivation.
//
// Total ≈ Acquire + Copy + Build + Search + Resolve + Validate: Acquire
// is the summed wait to take each shard mutex one at a time, Copy the
// summed per-shard copy-out into the snapshot arena (MaxShardHold is
// the worst single shard's hold — the only stall the activation imposes
// on the grant path), Build/Search/Resolve are the paper's Steps 1–3
// run over the snapshot with no locks held (TST construction; the
// O(n + e·(c′+1)) directed walk including TDR-2 queue repositionings;
// abort confirmation and queue rescheduling), and Validate covers
// re-verifying every resolution against the live shards and applying
// the survivors, wakeups included. Wake is always zero: it is the
// wake-and-release phase of a stop-the-world activation, which only the
// reference implementation in the tests runs; it stays in the report
// so both activations share one vocabulary.
//
// The json tags are the activation wire vocabulary; the wireschema
// analyzer checks the PhaseTotals accumulator's subset against them.
//
//hwlint:wire emit actphase
type ActivationReport struct {
	Time time.Time `json:"time"`
	Seq  int       `json:"seq"` // 1-based activation number

	Acquire  time.Duration `json:"acquire_ns"`
	Copy     time.Duration `json:"copy_ns"` // summed copy-out
	Build    time.Duration `json:"build_ns"`
	Search   time.Duration `json:"search_ns"`
	Resolve  time.Duration `json:"resolve_ns"`
	Validate time.Duration `json:"validate_ns"` // validate-then-act
	Wake     time.Duration `json:"wake_ns"`
	Total    time.Duration `json:"total_ns"` // the full activation

	// MaxShardHold is the longest any single shard mutex was held for
	// this activation's copy-out.
	MaxShardHold time.Duration `json:"max_shard_hold_ns"`

	Vertices       int `json:"vertices"`    // the graph's n
	Edges          int `json:"edges"`       // the graph's e
	EdgeVisits     int `json:"edge_visits"` // Step 2 cursor operations
	CyclesSearched int `json:"cycles"`      // the paper's c'
	Aborted        int `json:"aborted"`
	Repositioned   int `json:"repositioned"`
	Salvaged       int `json:"salvaged"`
	FalseCycles    int `json:"false_cycles"` // resolutions dropped at validation
	Validations    int `json:"validations"`  // validate-then-act attempts (applied + dropped)

	// ShardsCopied/ShardsSkipped decompose the snapshot copy phase:
	// shards recopied because their mutation epoch changed versus shards
	// whose previous copy was reused as-is.
	ShardsCopied  int `json:"shards_copied"`
	ShardsSkipped int `json:"shards_skipped"`
}

// String renders a one-line summary of the activation.
func (r ActivationReport) String() string {
	return fmt.Sprintf("activation %d: total=%v (acquire=%v copy=%v build=%v search=%v resolve=%v validate=%v wake=%v hold=%v) shards=%d/%d n=%d e=%d c'=%d aborted=%d repositioned=%d salvaged=%d false=%d validations=%d",
		r.Seq, r.Total, r.Acquire, r.Copy, r.Build, r.Search, r.Resolve, r.Validate, r.Wake, r.MaxShardHold,
		r.ShardsCopied, r.ShardsCopied+r.ShardsSkipped,
		r.Vertices, r.Edges, r.CyclesSearched, r.Aborted, r.Repositioned, r.Salvaged, r.FalseCycles, r.Validations)
}

// Manager is a goroutine-safe lock manager with a sharded lock table
// and periodic deadlock detection. Create one with Open.
type Manager struct {
	opts   Options
	shards []*shard
	mask   uint32 // len(shards)-1; shard count is a power of two
	mt     *multiTable

	// snap is the reusable snapshot arena and det the detector bound to
	// its merged view; both are touched only under detMu. holdSample
	// enables per-shard timing of the copy phase (off when no
	// ActivationReport consumer exists); dirtyScratch is the reusable
	// dirty-shard index list.
	snap         *table.Snapshot
	det          *detect.Detector
	holdSample   bool
	dirtyScratch []int

	// detMu serializes detector activations (background and manual)
	// and Close; it is always acquired before any shard lock.
	detMu sync.Mutex

	// curPeriod is the live detection interval in nanoseconds (equals
	// Options.Period unless Scheduling is tuning it).
	curPeriod atomic.Int64

	// cost is the online detection-scheduling cost model; always
	// maintained (it is a handful of mutexed float updates per
	// activation) so its state is observable even when Scheduling is not
	// "costmodel". schedMin/schedMax are the period bounds the cost-model
	// schedule clamps to.
	cost               *costModel
	schedMin, schedMax time.Duration

	// testHookAfterCopy, if set, runs between the copy-out and the
	// algorithm, with no locks held — tests use it to mutate the live
	// tables and force a torn snapshot.
	testHookAfterCopy func()

	// jr is the flight recorder: one lock-free ring per shard plus a
	// control ring (Options.JournalSize). Nil when disabled.
	jr *journal.Journal

	// mu guards stats, phases, the history/activation/postmortem rings
	// and the audit records only.
	mu           sync.Mutex
	stats        Stats
	phases       PhaseTotals
	history      *historyRing
	activations  *ring[ActivationReport]
	postmortems  *ring[Postmortem]
	auditRuns    int
	auditReports []audit.Report

	closed atomic.Bool
	nextID atomic.Int64
	// condemned holds the ids of transactions marked for an externally-
	// initiated abort (deadlock victims, Close) that the owning
	// goroutine has not yet observed; entries are consumed on
	// observation, so the map is empty in steady state and the hot
	// path's check of it is a lock-free load that almost always misses.
	condemned sync.Map

	stop chan struct{}
	done chan struct{}
}

// Open creates a Manager and, when opts.Period > 0, starts its
// background detector.
func Open(opts Options) *Manager {
	n := opts.Shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	n = ceilPow2(n)
	m := &Manager{
		opts:   opts,
		shards: make([]*shard, n),
		mask:   uint32(n - 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	for i := range m.shards {
		m.shards[i] = &shard{tb: table.New(), waiters: make(map[TxnID]chan struct{}), met: &shardMetrics{}}
	}
	if opts.JournalSize >= 0 {
		per := opts.JournalSize
		if per == 0 {
			per = 4096
		}
		m.jr = journal.New(n, per)
		for i := range m.shards {
			m.shards[i].jr = m.jr.Ring(i)
		}
	}
	m.mt = &multiTable{shards: m.shards}
	size := opts.HistorySize
	if size == 0 {
		size = 128
	}
	if size < 0 {
		size = 0
	}
	m.history = newHistoryRing(size)
	m.activations = newRing[ActivationReport](size)
	m.postmortems = newRing[Postmortem](size)
	m.snap = table.NewSnapshot()
	cost := opts.Cost
	if cost == nil {
		// The default metric prices a candidate from the snapshot itself,
		// since the live shards are unlocked while the algorithm runs.
		cost = func(id TxnID) float64 { return float64(m.snap.Table().HeldCount(id) + 1) }
	}
	// The detector runs over the snapshot's view, whose resource
	// iteration is restricted to resources that can contribute graph
	// edges (exactly output-preserving; see table.SnapView).
	m.det = detect.New(m.snap.View(), detect.Config{Cost: cost, DisableTDR2: opts.DisableTDR2})
	// Per-shard copy timing exists for ActivationReport consumers (the
	// history ring and tracers); with both disabled, the copy phase is
	// timed as one block instead of per shard.
	m.holdSample = size > 0 || opts.Tracer != nil
	m.cost = newCostModel(opts.now)
	m.schedMin, m.schedMax = schedBounds(opts.Period, opts.MaxPeriod)
	m.curPeriod.Store(int64(opts.Period))
	if opts.Period > 0 {
		go m.loop(opts.Period)
	} else {
		close(m.done)
	}
	return m
}

// schedBounds derives the period clamp the cost-model scheduler uses:
// min is period/8 floored at 100µs, max is MaxPeriod (default 8×period;
// with no base period at all, 10s — the model is then advisory only,
// since no background loop runs).
func schedBounds(period, maxPeriod time.Duration) (min, max time.Duration) {
	min = period / 8
	if min < 100*time.Microsecond {
		min = 100 * time.Microsecond
	}
	max = maxPeriod
	if max <= 0 {
		if period > 0 {
			max = 8 * period
		} else {
			max = 10 * time.Second
		}
	}
	if max < min {
		max = min
	}
	return min, max
}

// ceilPow2 rounds n up to the next power of two.
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func (m *Manager) loop(period time.Duration) {
	defer close(m.done)
	// Unknown Scheduling values fall back to fixed.
	costModel := m.opts.Scheduling == SchedulingCostModel
	cur := period
	var timer *time.Timer
	tick := m.opts.schedTick
	if tick == nil {
		timer = time.NewTimer(cur)
		defer timer.Stop()
		tick = timer.C
	}
	for {
		select {
		case <-m.stop:
			return
		case <-tick:
			m.Detect()
			if costModel {
				cur = m.cost.period(cur, m.schedMin, m.schedMax)
			}
			m.curPeriod.Store(int64(cur))
			if n := m.opts.schedNotify; n != nil {
				select {
				case n <- cur:
				default:
				}
			}
			if timer != nil {
				timer.Reset(cur)
			}
		}
	}
}

// CurrentPeriod returns the live detection interval: Options.Period, or
// the self-tuned value when Scheduling is costmodel. Zero
// means the background detector is disabled.
func (m *Manager) CurrentPeriod() time.Duration {
	return time.Duration(m.curPeriod.Load())
}

// CostModel returns the online detection-scheduling cost model's state:
// the estimated deadlock formation rate, measured detection and
// persistence costs, and the cost-minimizing period they imply. The
// model is always maintained; it only *drives* the detector under
// Options.Scheduling "costmodel" (otherwise the reported period is what
// the model would choose).
func (m *Manager) CostModel() CostModelState {
	cur := m.CurrentPeriod()
	if cur <= 0 {
		cur = m.opts.Period
	}
	return m.cost.state(cur, m.schedMin, m.schedMax)
}

// Close stops the background detector and aborts every live
// transaction. Lock calls in flight return ErrAborted (or ErrClosed).
func (m *Manager) Close() {
	m.detMu.Lock()
	if m.closed.Load() {
		m.detMu.Unlock()
		return
	}
	m.closed.Store(true)
	close(m.stop)
	m.stopTheWorld()
	for _, s := range m.shards {
		for _, id := range s.tb.Txns() {
			s.tb.Abort(id)
			m.condemned.Store(id, struct{}{})
		}
		s.epoch.bump()
		s.wakeAll()
	}
	m.resumeTheWorld()
	m.detMu.Unlock()
	<-m.done
}

// Detect runs one activation of the periodic detection-resolution
// algorithm immediately and returns what it did. The activation copies
// each shard out one at a time, runs the algorithm over the merged
// snapshot with no shard locks held, and applies each resolution only
// after re-validating its cycle against the live shards (see
// snapshot.go). A deadlock whose cycle spans resources in different
// shards is handled identically to one confined to a single shard.
func (m *Manager) Detect() Stats {
	m.detMu.Lock()
	defer m.detMu.Unlock()
	if m.closed.Load() {
		return Stats{}
	}
	return m.detectSnapshot()
}

// recordActivation folds one finished activation into the cumulative
// stats, phase totals and rings, then — outside all locks — journals
// the activation (with the cycle-edge evidence of every resolution it
// acted on), generates the deadlock postmortems, and fires the OnVictim
// and tracer hooks. stall is the worst grant-path stall the activation
// caused (the longest single-shard copy hold); it feeds the Stats.STW*
// gauges. resolutions carries the cycles the activation acted on (the
// validated survivors). The returned Stats describes this activation
// alone.
func (m *Manager) recordActivation(rep ActivationReport, stall time.Duration, validations int, victims []TxnID, events []Event, resolutions []detect.Resolution) Stats {
	rep.Validations = validations
	activation := Stats{
		Runs:           1,
		CyclesSearched: rep.CyclesSearched,
		Aborted:        rep.Aborted,
		Repositioned:   rep.Repositioned,
		Salvaged:       rep.Salvaged,
		FalseCycles:    rep.FalseCycles,
		Validations:    validations,
		ShardsCopied:   rep.ShardsCopied,
		ShardsSkipped:  rep.ShardsSkipped,
		STWTotal:       stall,
		STWLast:        stall,
		STWMax:         stall,
	}
	m.mu.Lock()
	m.stats.Runs++
	m.stats.CyclesSearched += rep.CyclesSearched
	m.stats.Aborted += rep.Aborted
	m.stats.Repositioned += rep.Repositioned
	m.stats.Salvaged += rep.Salvaged
	m.stats.FalseCycles += rep.FalseCycles
	m.stats.Validations += validations
	m.stats.ShardsCopied += rep.ShardsCopied
	m.stats.ShardsSkipped += rep.ShardsSkipped
	m.stats.STWTotal += stall
	m.stats.STWLast = stall
	if stall > m.stats.STWMax {
		m.stats.STWMax = stall
	}
	rep.Seq = m.stats.Runs
	m.phases.add(rep)
	m.activations.add(rep)
	for _, ev := range events {
		m.history.add(ev)
	}
	m.mu.Unlock()

	m.cost.observeActivation(rep)
	m.journalActivation(rep, events, resolutions)
	m.generatePostmortems(rep, resolutions)

	if cb := m.opts.OnVictim; cb != nil {
		for _, v := range victims {
			cb(v)
		}
	}
	if tr := m.opts.Tracer; tr != nil {
		tr.OnActivation(rep)
	}
	return activation
}

// journalActivation writes one activation's detector events into the
// control ring: the activation span, each resolution action, and the
// cycle-edge evidence of every cycle acted on (the records a postmortem
// is reconstructed from). Called outside all manager locks.
func (m *Manager) journalActivation(rep ActivationReport, events []Event, resolutions []detect.Resolution) {
	if m.jr == nil {
		return
	}
	ctl := m.jr.Control()
	ts := rep.Time.UnixNano()
	rec := journal.Record{TS: ts, Txn: int64(rep.Seq), Arg: uint64(rep.Total), Kind: journal.KindDetect, Aux: uint32(rep.CyclesSearched)}
	ctl.Emit(&rec)
	if len(m.shards) > 1 && rep.ShardsCopied+rep.ShardsSkipped > 0 {
		cr := journal.Record{TS: ts, Txn: int64(rep.Seq), Arg: uint64(rep.ShardsCopied), Kind: journal.KindDetectCopy, Aux: uint32(rep.ShardsSkipped)}
		ctl.Emit(&cr)
	}
	for _, ev := range events {
		r := journal.Record{TS: ts, Txn: int64(ev.Txn), Aux: uint32(rep.Seq)}
		switch ev.Kind {
		case EventVictim:
			r.Kind = journal.KindVictim
		case EventReposition:
			r.Kind = journal.KindReposition
			r.SetResource(string(ev.Resource))
		case EventSalvage:
			r.Kind = journal.KindSalvage
		}
		ctl.Emit(&r)
	}
	for i := range resolutions {
		res := &resolutions[i]
		if res.Salvaged {
			continue
		}
		for _, e := range res.Cycle {
			r := journal.Record{TS: ts, Txn: int64(e.From), Arg: uint64(e.To), Kind: journal.KindCycleEdge, Mode: uint8(e.Mode), Aux: uint32(rep.Seq)}
			r.SetResource(string(e.Resource))
			ctl.Emit(&r)
		}
	}
}

// Journal returns the manager's flight recorder, or nil when it was
// disabled (Options.JournalSize < 0). Snapshots taken from it are safe
// at any rate — readers never block the hot path.
func (m *Manager) Journal() *journal.Journal { return m.jr }

// Stats returns the cumulative detector statistics.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// AuditRuns reports how many detector activations the runtime invariant
// auditor has checked. It stays zero unless the binary was built with
// -tags=invariants and the manager was opened with Options.Audit.
func (m *Manager) AuditRuns() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.auditRuns
}

// AuditReports returns the invariant auditor's per-activation reports,
// oldest first (the most recent 256 are kept; clean reports included so
// tests can assert the auditor actually ran). Empty unless built with
// -tags=invariants and opened with Options.Audit.
func (m *Manager) AuditReports() []AuditReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]AuditReport(nil), m.auditReports...)
}

// ShardStats returns per-shard activity counters, one entry per shard
// in shard-index order. The counters are atomic, so no shard lock is
// taken; MetricsSnapshot returns the full per-shard breakdown.
func (m *Manager) ShardStats() []ShardStat {
	out := make([]ShardStat, len(m.shards))
	for i, s := range m.shards {
		out[i] = ShardStat{
			Grants:        s.met.grants.Load(),
			MutexAcquires: s.met.mutexAcquires.Load(),
			FlatCombined:  s.met.flatCombined.Load(),
		}
	}
	return out
}

// NumShards returns the shard count the manager was opened with (after
// rounding up to a power of two).
func (m *Manager) NumShards() int { return len(m.shards) }

// Snapshot returns the lock table rendered in the paper's notation, one
// resource per line, from a consistent stop-the-world view.
func (m *Manager) Snapshot() string {
	m.stopTheWorld()
	defer m.resumeTheWorld()
	return m.mt.String()
}

// DOT renders the current H/W-TWBG in Graphviz format.
func (m *Manager) DOT() string {
	m.stopTheWorld()
	defer m.resumeTheWorld()
	return twbg.Build(m.mt).DOT()
}

// Blocked reports whether transaction id is currently waiting for a
// lock (diagnostic).
func (m *Manager) Blocked(id TxnID) bool {
	for _, s := range m.shards {
		s.mu.Lock()
		b := s.tb.Blocked(id)
		s.mu.Unlock()
		if b {
			return true
		}
	}
	return false
}

// Deadlocked reports whether the current state contains a deadlock
// (diagnostic; the background detector clears them every period).
func (m *Manager) Deadlocked() bool {
	m.stopTheWorld()
	defer m.resumeTheWorld()
	return twbg.Build(m.mt).HasCycle()
}

func (m *Manager) String() string {
	return fmt.Sprintf("hwtwbg.Manager(period=%v, shards=%d)", m.opts.Period, len(m.shards))
}

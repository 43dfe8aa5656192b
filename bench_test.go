// Benchmarks regenerating the measurable claims of the paper and the
// comparison tables of EXPERIMENTS.md. One benchmark (family) per
// experiment:
//
//	E8  complexity     BenchmarkDetectChain, BenchmarkDetectWideQueues,
//	                   BenchmarkDetectRings, BenchmarkDetectExample41Tiles
//	E9/E10/E14 compare BenchmarkStrategyComparison
//	E11 TDR-2          BenchmarkTDR2Rate
//	E14 enumeration    BenchmarkCycleEnumerationVsDetector
//	API                BenchmarkManagerUncontended, BenchmarkManagerConflict
//
// Tables 1 and 2 (E1, E2) are benchmarked in internal/lock; the graph
// build (E4) in internal/twbg.
package hwtwbg

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"hwtwbg/internal/detect"
	"hwtwbg/internal/sim"
	"hwtwbg/internal/synth"
	"hwtwbg/internal/table"
	"hwtwbg/internal/twbg"
)

// benchDetect builds a topology per iteration and runs one periodic
// activation, reporting edge visits and searched cycles.
func benchDetect(b *testing.B, build func() *table.Table) {
	var visits, cycles int
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tb := build()
		d := detect.New(tb, detect.Config{})
		b.StartTimer()
		res := d.Run()
		visits += res.EdgeVisits
		cycles += res.CyclesSearched
	}
	b.ReportMetric(float64(visits)/float64(b.N), "edgevisits/op")
	b.ReportMetric(float64(cycles)/float64(b.N), "cycles/op")
}

func BenchmarkDetectChain(b *testing.B) {
	for _, n := range []int{100, 400, 1600} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchDetect(b, func() *table.Table { return synth.Chain(n) })
		})
	}
}

func BenchmarkDetectWideQueues(b *testing.B) {
	for _, m := range []int{10, 40, 160} {
		b.Run(fmt.Sprintf("m=%d,q=20", m), func(b *testing.B) {
			benchDetect(b, func() *table.Table { return synth.WideQueues(m, 20) })
		})
	}
}

func BenchmarkDetectRings(b *testing.B) {
	for _, k := range []int{5, 20, 80} {
		b.Run(fmt.Sprintf("k=%d,size=4", k), func(b *testing.B) {
			benchDetect(b, func() *table.Table { return synth.Rings(k, 4) })
		})
	}
}

func BenchmarkDetectExample41Tiles(b *testing.B) {
	for _, k := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("tiles=%d", k), func(b *testing.B) {
			benchDetect(b, func() *table.Table { return synth.Example41Tiles(k) })
		})
	}
}

// BenchmarkCycleEnumerationVsDetector contrasts Johnson-style
// elementary-cycle enumeration (what Jiang's participant listing pays
// for in the worst case) with the detector's c'-bounded search, on the
// nested-cycle tiles.
func BenchmarkCycleEnumerationVsDetector(b *testing.B) {
	const tiles = 16
	b.Run("enumerate-all-cycles", func(b *testing.B) {
		tb := synth.Example41Tiles(tiles)
		g := twbg.Build(tb)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := len(g.Cycles(0)); got != 4*tiles {
				b.Fatalf("cycles = %d", got)
			}
		}
	})
	b.Run("detector-search", func(b *testing.B) {
		benchDetect(b, func() *table.Table { return synth.Example41Tiles(tiles) })
	})
}

// BenchmarkStrategyComparison runs a short contended simulation per
// strategy, reporting commits and aborts per run (E9/E10/E14).
func BenchmarkStrategyComparison(b *testing.B) {
	cfg := sim.Config{
		Terminals: 8,
		Resources: 16,
		TxnLength: 6,
		WriteFrac: 0.4,
		HotProb:   0.5,
		Period:    10,
		Duration:  4000,
		Seed:      7,
	}
	factories := []struct {
		name string
		f    sim.Factory
	}{
		{"park-hwtwbg", sim.Park},
		{"park-no-tdr2", sim.ParkNoTDR2},
		{"park-continuous", sim.ParkContinuous},
		{"wfg-periodic", sim.WFGPeriodic},
		{"wfg-continuous", sim.WFGContinuous},
		{"agrawal", sim.Agrawal},
		{"elmagarmid", sim.Elmagarmid},
		{"jiang", sim.Jiang},
		{"timeout", sim.Timeout(50)},
	}
	for _, fc := range factories {
		b.Run(fc.name, func(b *testing.B) {
			var commits, aborts, wasted int
			for i := 0; i < b.N; i++ {
				m := sim.Run(cfg, fc.f)
				commits += m.Commits
				aborts += m.Aborts
				wasted += m.WastedOps
			}
			b.ReportMetric(float64(commits)/float64(b.N), "commits/run")
			b.ReportMetric(float64(aborts)/float64(b.N), "aborts/run")
			b.ReportMetric(float64(wasted)/float64(b.N), "wastedops/run")
		})
	}
}

// BenchmarkTDR2Rate measures the zero-abort resolution rate on a
// conversion-heavy workload (E11).
func BenchmarkTDR2Rate(b *testing.B) {
	cfg := sim.Config{
		Terminals: 8,
		Resources: 16,
		TxnLength: 6,
		WriteFrac: 0.2,
		ConvFrac:  0.3,
		HotProb:   0.5,
		Period:    10,
		Duration:  4000,
		Seed:      7,
	}
	var repositions, aborts int
	for i := 0; i < b.N; i++ {
		m := sim.Run(cfg, sim.Park)
		repositions += m.Repositionings
		aborts += m.Aborts
	}
	b.ReportMetric(float64(repositions)/float64(b.N), "tdr2/run")
	b.ReportMetric(float64(aborts)/float64(b.N), "aborts/run")
}

// BenchmarkManagerUncontended measures the public API fast path.
func BenchmarkManagerUncontended(b *testing.B) {
	lm := Open(Options{})
	defer lm.Close()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := lm.Begin()
		if err := t.Lock(ctx, "r1", S); err != nil {
			b.Fatal(err)
		}
		if err := t.Lock(ctx, "r2", X); err != nil {
			b.Fatal(err)
		}
		if err := t.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkManagerConflict measures grant hand-off between two
// goroutine-less transactions alternating on one resource.
func BenchmarkManagerConflict(b *testing.B) {
	lm := Open(Options{})
	defer lm.Close()
	b.ResetTimer()
	runManagerConflict(b, lm)
}

// runManagerConflict is one conflict hand-off loop over an open
// manager, shared by BenchmarkManagerConflict and the journal on/off
// comparison.
func runManagerConflict(b *testing.B, lm *Manager) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		a := lm.Begin()
		if err := a.Lock(ctx, "hot", X); err != nil {
			b.Fatal(err)
		}
		c := lm.Begin()
		done := make(chan error, 1)
		go func() { done <- c.Lock(ctx, "hot", X) }()
		for !lm.Blocked(c.ID()) {
			runtime.Gosched()
		}
		if err := a.Commit(); err != nil {
			b.Fatal(err)
		}
		if err := <-done; err != nil {
			b.Fatal(err)
		}
		if err := c.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchLockAllKeys is the shared multi-key working set for the LockAll
// benchmarks: enough keys that a batch meaningfully amortizes per-shard
// mutex rounds, few enough to stay a realistic transaction footprint.
const benchLockAllKeys = 16

func benchLockAllReqs() []LockRequest {
	reqs := make([]LockRequest, benchLockAllKeys)
	for i := range reqs {
		reqs[i] = LockRequest{Resource: ResourceID(fmt.Sprintf("ba%03d", i)), Mode: X}
	}
	return reqs
}

// BenchmarkManagerLockAll contrasts N single Lock calls against one
// LockAll batch over the same keys, reporting the shard-mutex rounds
// each path costs per transaction (mutexacq/op, from ShardStats) — the
// quantity group acquisition exists to shrink: the batch takes each
// shard's mutex once per round instead of once per lock.
func BenchmarkManagerLockAll(b *testing.B) {
	ctx := context.Background()
	reqs := benchLockAllReqs()
	mutexRounds := func(lm *Manager) uint64 {
		var n uint64
		for _, s := range lm.ShardStats() {
			n += s.MutexAcquires
		}
		return n
	}
	b.Run("sequential", func(b *testing.B) {
		lm := Open(Options{})
		defer lm.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t := lm.Begin()
			for _, rq := range reqs {
				if err := t.Lock(ctx, rq.Resource, rq.Mode); err != nil {
					b.Fatal(err)
				}
			}
			if err := t.Commit(); err != nil {
				b.Fatal(err)
			}
			t.Recycle()
		}
		b.StopTimer()
		b.ReportMetric(float64(mutexRounds(lm))/float64(b.N), "mutexacq/op")
	})
	b.Run("batched", func(b *testing.B) {
		lm := Open(Options{})
		defer lm.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t := lm.Begin()
			if err := t.LockAll(ctx, reqs); err != nil {
				b.Fatal(err)
			}
			if err := t.Commit(); err != nil {
				b.Fatal(err)
			}
			t.Recycle()
		}
		b.StopTimer()
		b.ReportMetric(float64(mutexRounds(lm))/float64(b.N), "mutexacq/op")
	})
}

// BenchmarkLockAllAB is the in-process A/B micro-harness: every
// iteration runs one per-lock transaction AND one batched transaction
// over the same multi-key working set, in the same process and run, so
// the reported ratio cannot be an artifact of cross-run environment
// drift (E22 showed cross-archive ns/op on this host is). A single
// shard maximizes what batching can amortize (one mutex round instead
// of N); speedup is sequential time over batched time.
func BenchmarkLockAllAB(b *testing.B) {
	lm := Open(Options{Shards: 1})
	defer lm.Close()
	ctx := context.Background()
	reqs := benchLockAllReqs()
	var seqNs, batNs time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		t := lm.Begin()
		for _, rq := range reqs {
			if err := t.Lock(ctx, rq.Resource, rq.Mode); err != nil {
				b.Fatal(err)
			}
		}
		if err := t.Commit(); err != nil {
			b.Fatal(err)
		}
		t.Recycle()
		seqNs += time.Since(start)

		start = time.Now()
		t = lm.Begin()
		if err := t.LockAll(ctx, reqs); err != nil {
			b.Fatal(err)
		}
		if err := t.Commit(); err != nil {
			b.Fatal(err)
		}
		t.Recycle()
		batNs += time.Since(start)
	}
	b.StopTimer()
	b.ReportMetric(float64(seqNs.Nanoseconds())/float64(b.N), "seq-ns/op")
	b.ReportMetric(float64(batNs.Nanoseconds())/float64(b.N), "batched-ns/op")
	if batNs > 0 {
		b.ReportMetric(float64(seqNs)/float64(batNs), "speedup")
	}
}

// BenchmarkManagerConflictJournal prices the flight recorder on the
// contended hand-off path (the workload with the most journal traffic
// per operation: begin, block, waited grant, commit records for every
// iteration). journal=on is the default configuration — the delta
// against journal=off is the recorder's whole cost, and allocs/op must
// match (the recorder never allocates on the hot path); see
// EXPERIMENTS.md E22.
func BenchmarkManagerConflictJournal(b *testing.B) {
	for _, v := range []struct {
		name string
		size int
	}{
		{"journal=on", 0},
		{"journal=off", -1},
	} {
		b.Run(v.name, func(b *testing.B) {
			lm := Open(Options{JournalSize: v.size})
			defer lm.Close()
			b.ReportAllocs()
			b.ResetTimer()
			runManagerConflict(b, lm)
		})
	}
}

// BenchmarkManagerParallel measures multi-core scaling of the public
// API under b.RunParallel. The low-conflict variant spreads each
// transaction's two locks over a large key space, so almost no two
// goroutines ever touch the same resource: this is the path the sharded
// facade parallelizes and the serial Manager bottlenecks on one mutex.
// The high-conflict variant squeezes every transaction onto a handful
// of keys (locked in sorted order, so the workload itself is
// deadlock-free) and measures contended hand-off instead.
func BenchmarkManagerParallel(b *testing.B) {
	variants := []struct {
		name string
		keys int
		mode Mode
	}{
		{"low-conflict", 64 * 1024, X},
		{"high-conflict", 8, X},
		{"read-shared", 64 * 1024, S},
	}
	shardCounts := []int{1, runtime.GOMAXPROCS(0)}
	if runtime.GOMAXPROCS(0) == 1 {
		shardCounts = []int{1, 8} // still exercises the sharded paths
	}
	for _, v := range variants {
		for _, shards := range shardCounts {
			b.Run(fmt.Sprintf("%s/shards=%d", v.name, shards), func(b *testing.B) {
				lm := Open(Options{Shards: shards})
				defer lm.Close()
				ctx := context.Background()
				var seed atomic.Int64
				b.ReportAllocs()
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					rng := rand.New(rand.NewSource(seed.Add(1)))
					for pb.Next() {
						t := lm.Begin()
						i, j := rng.Intn(v.keys), rng.Intn(v.keys)
						if i > j {
							i, j = j, i
						}
						if err := t.Lock(ctx, ResourceID(fmt.Sprintf("k%07d", i)), v.mode); err != nil {
							b.Fatal(err)
						}
						if j != i {
							if err := t.Lock(ctx, ResourceID(fmt.Sprintf("k%07d", j)), v.mode); err != nil {
								b.Fatal(err)
							}
						}
						if err := t.Commit(); err != nil {
							b.Fatal(err)
						}
					}
				})
			})
		}
	}
}

// countingTracer is the cheapest possible attached Tracer: one atomic
// add per hook. Comparing it against a nil tracer isolates the cost of
// the hook dispatch itself (E20).
type countingTracer struct{ events atomic.Uint64 }

func (n *countingTracer) OnRequest(TxnID, ResourceID, Mode)              { n.events.Add(1) }
func (n *countingTracer) OnBlock(TxnID, ResourceID, Mode, int)           { n.events.Add(1) }
func (n *countingTracer) OnGrant(TxnID, ResourceID, Mode, time.Duration) { n.events.Add(1) }
func (n *countingTracer) OnAbort(TxnID)                                  { n.events.Add(1) }
func (n *countingTracer) OnActivation(ActivationReport)                  { n.events.Add(1) }

// BenchmarkManagerTracerOverhead measures the instrumented hot path
// with the tracer compiled in but idle (nil) against an attached
// minimal tracer, on the low-conflict parallel workload — the E20
// acceptance measurement: the delta must be within noise.
func BenchmarkManagerTracerOverhead(b *testing.B) {
	const keys = 64 * 1024
	run := func(b *testing.B, tracer Tracer) {
		lm := Open(Options{Tracer: tracer})
		defer lm.Close()
		ctx := context.Background()
		var seed atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			rng := rand.New(rand.NewSource(seed.Add(1)))
			for pb.Next() {
				t := lm.Begin()
				i, j := rng.Intn(keys), rng.Intn(keys)
				if i > j {
					i, j = j, i
				}
				if err := t.Lock(ctx, ResourceID(fmt.Sprintf("k%07d", i)), X); err != nil {
					b.Fatal(err)
				}
				if j != i {
					if err := t.Lock(ctx, ResourceID(fmt.Sprintf("k%07d", j)), X); err != nil {
						b.Fatal(err)
					}
				}
				if err := t.Commit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("tracer=idle", func(b *testing.B) { run(b, nil) })
	b.Run("tracer=attached", func(b *testing.B) { run(b, &countingTracer{}) })
}

// BenchmarkMetricsSnapshot prices reading the full metric set while the
// manager is live (the debug-endpoint path; must not stop the world).
func BenchmarkMetricsSnapshot(b *testing.B) {
	lm := Open(Options{})
	defer lm.Close()
	ctx := context.Background()
	t := lm.Begin()
	if err := t.Lock(ctx, "r", X); err != nil {
		b.Fatal(err)
	}
	defer t.Commit()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := lm.MetricsSnapshot()
		if snap.Total.Grants == 0 {
			b.Fatal("lost grants")
		}
	}
}

// BenchmarkDetectorActivation prices one snapshot-detector activation
// at varying dirty fractions: 32 populated shards, of which 0%, 10% or
// 90% see lock churn between activations. dirty0 is the incremental
// snapshot's best case (every shard reused), dirty90 approaches the
// full-copy cost plus the epoch bookkeeping. Churn runs outside the
// timer, so the number is the activation alone.
func BenchmarkDetectorActivation(b *testing.B) {
	for _, tc := range []struct {
		name  string
		dirty int // shards churned per activation, of 32
	}{
		{"dirty0", 0},
		{"dirty10", 3},
		{"dirty90", 29},
	} {
		b.Run(tc.name, func(b *testing.B) {
			const shards = 32
			m := Open(Options{Shards: shards})
			defer m.Close()
			ctx := context.Background()
			pin := m.Begin()
			for i := 0; i < shards; i++ {
				for j := 0; j < 8; j++ {
					if err := pin.Lock(ctx, shardResource(b, m, uint32(i), j), S); err != nil {
						b.Fatal(err)
					}
				}
			}
			churn := make([]ResourceID, tc.dirty)
			for i := range churn {
				churn[i] = shardResource(b, m, uint32(i), 100)
			}
			m.Detect() // warm-up: the one full copy
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for _, r := range churn {
					tx := m.Begin()
					if err := tx.Lock(ctx, r, X); err != nil {
						b.Fatal(err)
					}
					if err := tx.Commit(); err != nil {
						b.Fatal(err)
					}
					tx.Recycle()
				}
				b.StartTimer()
				m.Detect()
			}
		})
	}
}

// BenchmarkDetectSteadyState measures repeated activations of ONE
// detector on a live (deadlock-free) table — the deployed shape, where
// the vertex pool and maps are recycled across runs and a steady-state
// activation allocates almost nothing.
func BenchmarkDetectSteadyState(b *testing.B) {
	tb := synth.Chain(200)
	d := detect.New(tb, detect.Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := d.Run()
		if res.CyclesSearched != 0 {
			b.Fatal("chain must stay clean")
		}
	}
}

// Command perfbench is the repository's benchmark: it runs one
// closed-loop workload against the lock manager, kv store or wire
// service, checks the outputs, and prints the end-to-end metrics (or,
// with --trace 1, the per-layer metrics) as one JSON line. See
// README.md in this directory for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, measured with
// tracing off; every workload reports each of them.
var endToEnd = []metricDef{
	{"throughput_tps", "1/s"},
	{"txn_p50_us", "us"},
	{"txn_p99_us", "us"},
	{"heap_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the metrics of single layers, from the traced run.
var perLayer = []metricDef{
	{"manager.lock_us", "us"},
	{"manager.commit_us", "us"},
	{"manager.mutex_rounds_per_txn", "count"},
	{"manager.flat_combined_frac", "ratio"},
	{"manager.blocked_frac", "ratio"},
	{"manager.wait_ms", "ms"},
	{"table.request_ns", "ns"},
	{"table.release_ns", "ns"},
	{"journal.records_per_txn", "count"},
	{"journal.capture_ratio", "ratio"},
	{"detect.activations_per_s", "1/s"},
	{"detect.lag_ms", "ms"},
	{"detect.activation_us", "us"},
	{"detect.copy_us", "us"},
	{"detect.build_us", "us"},
	{"detect.search_us", "us"},
	{"detect.validate_us", "us"},
	{"detect.shards_copied_frac", "ratio"},
	{"detect.useful_frac", "ratio"},
	{"detect.max_shard_hold_us", "us"},
	{"detect.tdr2_frac", "ratio"},
	{"detect.false_cycle_frac", "ratio"},
	{"detect.vertices_p50", "count"},
	{"detect.edges_p50", "count"},
	{"detect.victims", "count"},
	{"detect.victim_wait_p50_ms", "ms"},
	{"detect.victim_wait_p90_ms", "ms"},
	{"detect.abort_ratio", "ratio"},
	{"kv.get_us", "us"},
	{"kv.put_us", "us"},
	{"kv.commit_us", "us"},
	{"kv.attempts_per_txn", "count"},
	{"kv.retry_overhead_ms", "ms"},
	{"wire.begin_us", "us"},
	{"wire.lockall_us", "us"},
	{"wire.commit_us", "us"},
	{"wire.marginal_us_per_txn", "us"},
	{"wire.client_syscalls_per_txn", "count"},
	{"wire.server_syscalls_per_txn", "count"},
	{"wire.bytes_per_txn", "bytes"},
	{"trace.overhead_frac", "ratio"},
	{"ladder.txn_table_ns", "ns"},
	{"ladder.txn_manager_nojournal_ns", "ns"},
	{"ladder.txn_manager_ns", "ns"},
	{"ladder.txn_kv_ns", "ns"},
	{"ladder.txn_wire_ns", "ns"},
	{"ladder.lockall_table_ns", "ns"},
	{"ladder.lockall_manager_nojournal_ns", "ns"},
	{"ladder.lockall_manager_ns", "ns"},
	{"ladder.lockall_wire_ns", "ns"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// tally counts operations attempted and failed: every transaction
// issued and every output check. A deadlock abort that was retried is
// not a failure; any other error is.
type tally struct {
	attempted, failed int64
	errs              []error
}

func (t *tally) phase(clients []*client) {
	for _, c := range clients {
		t.attempted += c.committed + c.failed
		t.failed += c.failed
		if c.err != nil {
			t.errs = append(t.errs, c.err)
		}
	}
}

func (t *tally) check(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		t.errs = append(t.errs, err)
	}
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	traceOut string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run: uncontended, transfer or wire")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	fs.IntVar(&o.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced run printing per-layer metrics")
	fs.StringVar(&o.traceOut, "trace-out", "", "Chrome trace file of the traced run (default .bench_build/perfbench-<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(o.workload)
	if !ok || o.seconds < 1 || o.trace < 0 || o.trace > 1 {
		fmt.Fprintln(stderr, "perfbench: need --workload uncontended|transfer|wire, --seconds >= 1 and --trace 0|1")
		return 2
	}
	if o.traceOut == "" {
		o.traceOut = filepath.Join(".bench_build", fmt.Sprintf("perfbench-%s-%d.json", o.workload, o.seed))
	}

	// Load never exceeds one client per CPU.
	n := runtime.NumCPU()
	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%d trace=%d nproc=%d gomaxprocs=%d go=%s clients=%d shards=%d\n",
		o.workload, o.seed, o.seconds, o.trace, n, runtime.GOMAXPROCS(0), runtime.Version(), n, shards)
	clients := make([]*client, n)
	for i := range clients {
		clients[i] = &client{id: i, in: newInputs(o.seed, uint64(i), w.names(i))}
	}

	ctx := context.Background()
	var t tally
	var m map[string]float64
	var err error
	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer
		m, err = runTraced(ctx, w, o, clients, &t, stdout)
	} else {
		m, err = runTimed(ctx, w, o, clients, &t, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s was not measured\n", d.name)
			return 1
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
	}
	for _, e := range t.errs {
		fmt.Fprintln(stderr, "perfbench: failed:", e)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// heapMB is the Go heap in use after a collection, less the
// benchmark's own sample buffers, in MiB.
func heapMB(clients []*client, extra ...[]uint32) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	own := 0
	for _, c := range clients {
		own += 4 * (cap(c.lat) + cap(c.victim))
	}
	for _, x := range extra {
		own += 4 * cap(x)
	}
	return (float64(ms.HeapAlloc) - float64(own)) / (1 << 20)
}

// runTimed is the untraced run: rounds of set-up, a timed closed loop
// of quota transactions, heap measurement, output checks and teardown,
// started while the measured time is under --seconds. Throughput and
// latency are medians over every complete window of every round, so a
// burst of load from outside the benchmark moves a few windows rather
// than the result; heap and set-up time are medians over rounds.
func runTimed(ctx context.Context, w workload, o options, clients []*client, t *tally, out io.Writer) (map[string]float64, error) {
	budget := time.Duration(o.seconds) * time.Second
	for _, c := range clients {
		c.lat = make([]uint32, 0, w.quota+int64(checkEvery*len(clients)))
	}
	scratch := make([]uint32, 0, cap(clients[0].lat)*len(clients))
	var (
		setups, heaps, tps, p50s, p99s []float64
		victims                        []uint32
		committed, aborts              int64
		timed                          time.Duration
	)
	for round := 1; timed < budget && t.failed == 0; round++ {
		runtime.GC()
		t0 := time.Now()
		sys, err := w.open(ctx, len(clients))
		if err != nil {
			return nil, err
		}
		runPhase(ctx, clients, sys.txn, w.warm, budget, false)
		setup := time.Since(t0)
		t.phase(clients)
		for _, c := range clients {
			c.resetPhase()
		}
		// A round always runs to its quota; the budget only caps a
		// round of a program too slow to reach it.
		dur := runPhase(ctx, clients, sys.txn, w.quota, budget, true)
		timed += dur
		var n int64
		for _, c := range clients {
			n += c.committed
			aborts += c.aborts
			victims = append(victims, c.victim...)
		}
		committed += n
		heap := heapMB(clients, scratch, victims)
		w0, a0, b0 := len(tps), len(p50s), len(p99s)
		tps, p50s, p99s, scratch = windowStats(clients, tps, p50s, p99s, scratch)
		t.phase(clients)
		t.check(sys.check(ctx))
		sys.close()
		fmt.Fprintf(out, "# round %d: setup %.4f s, %d txns in %.4f s = %.1f tps; %d windows: p50 %.2f us, p99 %.2f us; heap %.2f MB\n",
			round, setup.Seconds(), n, dur.Seconds(), float64(n)/dur.Seconds(), len(tps)-w0,
			median(p50s[a0:])/1e3, median(p99s[b0:])/1e3, heap)
		setups = append(setups, setup.Seconds())
		heaps = append(heaps, heap)
	}
	m := map[string]float64{
		"throughput_tps": median(tps),
		"heap_mb":        median(heaps),
		"setup_s":        median(setups),
	}
	// A percentile no window has the samples for stays unmeasured, and
	// the run fails rather than report it.
	if len(p50s) > 0 {
		m["txn_p50_us"] = median(p50s) / 1e3
	}
	if len(p99s) > 0 {
		m["txn_p99_us"] = median(p99s) / 1e3
	}
	fmt.Fprintf(out, "# %d windows of %v: %d with a p99 (>= 1000 samples); throughput %.1f tps, p50 %.3f us, p99 %.3f us\n",
		len(tps), window, len(p99s), m["throughput_tps"], m["txn_p50_us"], m["txn_p99_us"])
	vm := map[string]float64{}
	victimMetrics(vm, victims, aborts, committed)
	fmt.Fprintf(out, "# %d rounds of %d txns, %d committed; victim wait p50 %.3f ms, p90 %.3f ms (n=%.0f); abort_ratio %.5f; error_rate %.5f\n",
		len(setups), w.quota, committed, vm["detect.victim_wait_p50_ms"], vm["detect.victim_wait_p90_ms"],
		vm["detect.victims"], vm["detect.abort_ratio"], ratio(float64(t.failed), float64(t.attempted)))
	return m, nil
}

// Shares of --seconds for the traced run's phases; the ladder takes
// about a second after them.
const (
	untracedShare = 0.55
	tracedShare   = 0.25
	overheadPairs = 8     // untraced/traced segment pairs
	spansPerTxn   = 8     // room per transaction in a client's span buffer
	tracedTxns    = 16384 // transactions a client traces at most
)

// runTraced is the traced run. One set-up serves an untraced phase,
// whose counter diffs give the layers' work, then alternating untraced
// and traced segments: the traced ones record spans, and comparing the
// two sides' throughput gives the tracing overhead with drift in the
// host's load falling on both alike. Victim waits are pooled over all
// phases. The layer ladder follows; metrics of layers the workload does
// not call directly come from it.
func runTraced(ctx context.Context, w workload, o options, clients []*client, t *tally, out io.Writer) (map[string]float64, error) {
	budget := time.Duration(o.seconds) * time.Second
	epoch := time.Now()
	sys, err := w.open(ctx, len(clients))
	if err != nil {
		return nil, err
	}
	runPhase(ctx, clients, sys.txn, w.warm, budget, false)
	t.phase(clients)
	for _, c := range clients {
		c.resetPhase()
	}

	wm := map[string]float64{}
	lm := sys.manager()
	before, cli0, svr0 := lm.MetricsSnapshot(), ioTotals{}, ioTotals{}
	ws, isWire := sys.(*wireSystem)
	if isWire {
		cli0, svr0 = ws.cli.load(), ws.svr.load()
	}
	dur := runPhase(ctx, clients, sys.txn, math.MaxInt64, time.Duration(float64(budget)*untracedShare), true)
	after := lm.MetricsSnapshot()
	var committed, aborts, attempts int64
	var victims []uint32
	for _, c := range clients {
		committed += c.committed
		aborts += c.aborts
		attempts += c.attempts
		victims = append(victims, c.victim...)
	}
	managerMetrics(wm, before, after, committed)
	detectMetrics(wm, lm, before, after, dur)
	if isWire {
		wireMetrics(wm, ws.cli.load().sub(cli0), ws.svr.load().sub(svr0), committed)
	}
	if attempts > 0 {
		wm["kv.attempts_per_txn"] = ratio(float64(attempts), float64(committed))
	}
	t.phase(clients)

	tracers := make([]*tracer, len(clients))
	for i := range clients {
		tracers[i] = newTracer(epoch, tracedTxns*spansPerTxn)
	}
	var n [2]int64 // committed: untraced, traced segments
	var d [2]time.Duration
	segQuota := int64(tracedTxns * len(clients) / overheadPairs)
	segTime := time.Duration(float64(budget) * tracedShare / (2 * overheadPairs))
	for pair := 0; pair < overheadPairs && !tracers[0].full && !tracers[len(tracers)-1].full; pair++ {
		for side := range 2 {
			for i, c := range clients {
				c.resetPhase()
				c.tr = nil
				if side == 1 {
					c.tr = tracers[i]
				}
			}
			d[side] += runPhase(ctx, clients, sys.txn, segQuota, segTime, true)
			for _, c := range clients {
				n[side] += c.committed
				aborts += c.aborts
				victims = append(victims, c.victim...)
			}
			t.phase(clients)
		}
	}
	for _, c := range clients {
		c.tr = nil
	}
	victimMetrics(wm, victims, aborts, committed+n[0]+n[1])
	untraced, traced := float64(n[0])/d[0].Seconds(), float64(n[1])/d[1].Seconds()
	wm["trace.overhead_frac"] = 1 - traced/untraced
	collectSpans(tracers).fill(wm)
	t.check(sys.check(ctx))
	sys.close()
	fmt.Fprintf(out, "# segments: untraced %.1f tps over %.3f s, traced %.1f tps over %.3f s, %d spans; %d victims\n",
		untraced, d[0].Seconds(), traced, d[1].Seconds(), spanCount(tracers), len(victims))

	m, ladder, err := runLadder(ctx, o.seed, epoch, t)
	if err != nil {
		return nil, err
	}
	for k, v := range wm {
		m[k] = v
	}
	if err := writeTrace(o.traceOut, map[string][]*tracer{"workload " + w.name: tracers, "ladder": ladder}); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "# trace written to %s\n", o.traceOut)
	return m, nil
}

func spanCount(tracers []*tracer) int {
	n := 0
	for _, tr := range tracers {
		n += len(tr.spans)
	}
	return n
}

func writeTrace(path string, groups map[string][]*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, groups); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

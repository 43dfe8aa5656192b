package main

import (
	"time"

	"hwtwbg"
)

// The functions here turn counter diffs taken at two quiescent points
// (no transaction in flight) into per-layer metrics. Totals come from
// the lifetime counters the layers publish; the detector's activation
// ring, which keeps only the latest reports, serves only per-activation
// distributions.

// managerMetrics derives the manager's work per transaction from its
// counter blocks.
func managerMetrics(m map[string]float64, b, a hwtwbg.MetricsSnapshot, committed int64) {
	tb, ta := b.Total, a.Total
	requests := float64(ta.Fresh + ta.Conversions - tb.Fresh - tb.Conversions)
	m["manager.mutex_rounds_per_txn"] = ratio(float64(ta.MutexAcquires-tb.MutexAcquires), float64(committed))
	m["manager.flat_combined_frac"] = ratio(float64(ta.FlatCombined-tb.FlatCombined), requests)
	m["manager.blocked_frac"] = ratio(float64(ta.Blocked-tb.Blocked), requests)
	m["manager.wait_ms"] = ratio(float64(ta.WaitNs.Sum-tb.WaitNs.Sum), float64(ta.WaitNs.Count-tb.WaitNs.Count)) / 1e6
}

// detectMetrics derives the detector's cost and usefulness over the
// window between the snapshots b and a.
func detectMetrics(m map[string]float64, lm *hwtwbg.Manager, b, a hwtwbg.MetricsSnapshot, window time.Duration) {
	db, da := b.Detector, a.Detector
	runs := float64(da.Runs - db.Runs)
	pb, pa := b.Phases, a.Phases
	phase := func(x, y time.Duration) float64 { return ratio(float64(y-x), runs) / 1e3 }
	m["detect.activations_per_s"] = runs / window.Seconds()
	m["detect.activation_us"] = phase(pb.Acquire+pb.Copy+pb.Build+pb.Search+pb.Resolve+pb.Validate+pb.Wake,
		pa.Acquire+pa.Copy+pa.Build+pa.Search+pa.Resolve+pa.Validate+pa.Wake)
	m["detect.copy_us"] = phase(pb.Copy, pa.Copy)
	m["detect.build_us"] = phase(pb.Build, pa.Build)
	m["detect.search_us"] = phase(pb.Search, pa.Search)
	m["detect.validate_us"] = phase(pb.Validate, pa.Validate)
	m["detect.max_shard_hold_us"] = phase(db.STWTotal, da.STWTotal)
	copied, skipped := float64(da.ShardsCopied-db.ShardsCopied), float64(da.ShardsSkipped-db.ShardsSkipped)
	m["detect.shards_copied_frac"] = ratio(copied, copied+skipped)
	m["detect.tdr2_frac"] = ratio(float64(da.Repositioned-db.Repositioned), float64(da.CyclesSearched-db.CyclesSearched))
	m["detect.false_cycle_frac"] = ratio(float64(da.FalseCycles-db.FalseCycles), float64(da.Validations-db.Validations))

	reports, _ := lm.Activations()
	var useful float64
	var vertices, edges []float64
	var first, last time.Time
	for _, r := range reports {
		if r.Seq <= db.Runs || r.Seq > da.Runs {
			continue
		}
		if first.IsZero() {
			first = r.Time
		}
		last = r.Time
		if r.CyclesSearched > 0 {
			useful++
		}
		vertices = append(vertices, float64(r.Vertices))
		edges = append(edges, float64(r.Edges))
	}
	n := float64(len(vertices))
	m["detect.useful_frac"] = ratio(useful, n)
	m["detect.vertices_p50"] = median(vertices)
	m["detect.edges_p50"] = median(edges)
	// The lag is how much later than its period the detector really
	// runs: under load, scheduling rather than the period sets it.
	m["detect.lag_ms"] = 0
	if n >= 2 {
		interval := last.Sub(first).Seconds() / (n - 1)
		m["detect.lag_ms"] = (interval - lm.CurrentPeriod().Seconds()) * 1e3
	}
}

// victimMetrics reports deadlock persistence as the application sees
// it: the wait of every lock call that returned ErrAborted, and aborted
// attempts per committed transaction. Without victims (or with too few
// for the percentile) the waits read 0; detect.victims gives the count.
func victimMetrics(m map[string]float64, waits []uint32, aborts, committed int64) {
	m["detect.victims"] = float64(len(waits))
	p50, _ := percentile(waits, 0.5)
	p90, _ := percentile(waits, 0.9)
	m["detect.victim_wait_p50_ms"] = p50 / 1e6
	m["detect.victim_wait_p90_ms"] = p90 / 1e6
	m["detect.abort_ratio"] = ratio(float64(aborts), float64(committed))
}

// wireMetrics reports the wire's exact work per committed transaction.
func wireMetrics(m map[string]float64, cli, svr ioTotals, committed int64) {
	n := float64(committed)
	m["wire.client_syscalls_per_txn"] = ratio(float64(cli.calls()), n)
	m["wire.server_syscalls_per_txn"] = ratio(float64(svr.calls()), n)
	m["wire.bytes_per_txn"] = ratio(float64(cli.bytes()), n)
}

// spanMetric maps a span name to the per-layer metric its self times
// give: the median divided by scale, or for retry overhead, which is
// zero for most transactions, the mean.
type spanMetric struct {
	span   spanName
	metric string
	scale  float64
	mean   bool
}

var spanMetrics = []spanMetric{
	{spMgrLock, "manager.lock_us", 1e3, false},
	{spMgrCommit, "manager.commit_us", 1e3, false},
	{spTableRequest, "table.request_ns", 1, false},
	{spTableRelease, "table.release_ns", 1, false},
	{spKVGet, "kv.get_us", 1e3, false},
	{spKVPut, "kv.put_us", 1e3, false},
	{spKVCommit, "kv.commit_us", 1e3, false},
	{spKVUpdate, "kv.retry_overhead_ms", 1e6, true},
	{spWireBegin, "wire.begin_us", 1e3, false},
	{spWireLockAll, "wire.lockall_us", 1e3, false},
	{spWireCommit, "wire.commit_us", 1e3, false},
}

// fill sets every span metric that has enough samples.
func (st *spanStats) fill(m map[string]float64) {
	for _, d := range spanMetrics {
		xs := st[d.span]
		if d.mean && len(xs) > 0 {
			var sum float64
			for _, v := range xs {
				sum += float64(v)
			}
			m[d.metric] = sum / float64(len(xs)) / d.scale
		} else if v, ok := percentile(xs, 0.5); ok && !d.mean {
			m[d.metric] = v / d.scale
		}
	}
}

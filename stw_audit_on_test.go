//go:build invariants

package hwtwbg

// The runtime invariant auditor's attachment to the stop-the-world
// oracle (see stw_oracle_test.go), compiled only under the `invariants`
// build tag like audit_on.go, and inert unless Options.Audit is set.

import (
	"hwtwbg/internal/audit"
	"hwtwbg/internal/detect"
	"hwtwbg/internal/table"
	"hwtwbg/internal/twbg"
)

// auditPreSTW captures the pre-activation state. The world is stopped,
// so copying every shard into one snapshot yields a consistent view.
func (o *stwOracle) auditPreSTW() *auditState {
	m := o.Manager
	if !m.opts.Audit {
		return nil
	}
	snap := table.NewSnapshot()
	snap.BeginRound(len(m.shards))
	all := make([]int, len(m.shards))
	for i, s := range m.shards {
		snap.CopyShard(s.tb, i, 0)
		snap.FinishShard(i)
		all[i] = i
	}
	snap.MergeShards(all)
	return &auditState{graph: twbg.Build(m.mt), clone: snap.Table()}
}

// auditPostSTW runs the checks with the world still stopped: the live
// tables must satisfy the queue invariants, every reported cycle must
// have been a genuine deadlock of the captured pre-state, and the live
// graph must now be cycle-free (Theorem 4.1).
func (o *stwOracle) auditPostSTW(pre *auditState, res detect.Result) {
	if pre == nil {
		return
	}
	m := o.Manager
	vs := audit.CheckGraph(pre.graph)
	vs = append(vs, audit.CheckResolutions(pre.graph, pre.clone, res.Resolutions)...)
	vs = append(vs, audit.CheckTables(m.shardTables())...)
	vs = append(vs, audit.CheckAcyclic(m.mt)...)
	m.recordAudit(labelSTW, vs)
}

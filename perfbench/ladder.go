package main

import (
	"context"
	"fmt"
	"time"

	"hwtwbg"
)

// The layer ladder runs one transaction shape through each layer in
// turn, in one process and from one client with the same input
// sequence: the bare lock table, the manager with its journal off, the
// manager, kv and the wire. The difference between adjacent rungs is
// the marginal cost of a layer. Ladder managers run no background
// detector (Period 0), so nothing but the transactions writes to the
// journal and its record count per transaction is exact; kv cannot turn
// its detector off, but an activation with no waiters costs about a
// microsecond per period.

const (
	ladderPasses  = 3       // interleaved passes over all rungs
	ladderBatches = 30      // timed batches per rung per pass
	ladderTraced  = 3000    // transactions of a rung's traced pass
	ladderStream  = 1 << 20 // input stream of the ladder's client, apart from the workload clients'
)

type rung struct {
	metric string // per-layer metric: median ns per transaction
	batch  int    // transactions per timed batch
	traced bool   // whether the traced pass times this rung's calls
	open   func() (system, error)
}

func ladderRungs() []rung {
	mgr := func(opts hwtwbg.Options, lockAll bool) func() (system, error) {
		return func() (system, error) { return openManager(opts, lockAll), nil }
	}
	noJournal := hwtwbg.Options{JournalSize: -1}
	return []rung{
		{"ladder.txn_table_ns", 256, true, func() (system, error) { return openTable(false), nil }},
		{"ladder.txn_manager_nojournal_ns", 256, false, mgr(noJournal, false)},
		{"ladder.txn_manager_ns", 256, true, mgr(hwtwbg.Options{}, false)},
		{"ladder.txn_kv_ns", 64, true, func() (system, error) { return openKV(), nil }},
		{"ladder.txn_wire_ns", 16, false, func() (system, error) { return openWire(hwtwbg.Options{}, false, 1) }},
		{"ladder.lockall_table_ns", 256, false, func() (system, error) { return openTable(true), nil }},
		{"ladder.lockall_manager_nojournal_ns", 256, false, mgr(noJournal, true)},
		{"ladder.lockall_manager_ns", 256, false, mgr(hwtwbg.Options{}, true)},
		{"ladder.lockall_wire_ns", 16, true, func() (system, error) { return openWire(hwtwbg.Options{}, true, 1) }},
	}
}

// runLadder measures every rung and returns the ladder's per-layer
// metrics and the tracers of its traced passes.
func runLadder(ctx context.Context, seed uint64, epoch time.Time, t *tally) (map[string]float64, []*tracer, error) {
	names := resourceNames("l/", 4096)
	rungs := ladderRungs()
	systems := make([]system, len(rungs))
	clients := make([]*client, len(rungs))
	defer func() {
		for _, s := range systems {
			if s != nil {
				s.close()
			}
		}
	}()
	run := func(i, n int) error {
		c := clients[i]
		for k := 0; k < n; k++ {
			if err := systems[i].txn(ctx, c); err != nil {
				c.failed++
				return fmt.Errorf("%s: %w", rungs[i].metric, err)
			}
			c.committed++
		}
		return nil
	}
	for i, r := range rungs {
		s, err := r.open()
		if err != nil {
			return nil, nil, err
		}
		systems[i] = s
		clients[i] = &client{in: newInputs(seed, ladderStream, names)}
		if err := run(i, 4*r.batch); err != nil {
			return nil, nil, err
		}
	}

	// Counters around the timed passes give the exact counts.
	find := func(metric string) int {
		for i, r := range rungs {
			if r.metric == metric {
				return i
			}
		}
		panic("ladder: no rung " + metric)
	}
	journalRung, kvRung, wireRung := find("ladder.txn_manager_ns"), find("ladder.txn_kv_ns"), find("ladder.lockall_wire_ns")
	emitted := func() uint64 { return systems[journalRung].manager().Journal().Stats().Emitted }
	ws := systems[wireRung].(*wireSystem)
	for _, c := range clients {
		c.resetPhase()
	}
	j0, cli0, svr0 := emitted(), ws.cli.load(), ws.svr.load()
	samples := make([][]float64, len(rungs))
	for pass := 0; pass < ladderPasses; pass++ {
		for i, r := range rungs {
			for b := 0; b < ladderBatches; b++ {
				t0 := time.Now()
				if err := run(i, r.batch); err != nil {
					return nil, nil, err
				}
				samples[i] = append(samples[i], float64(time.Since(t0))/float64(r.batch))
			}
		}
	}
	m := make(map[string]float64)
	for i, r := range rungs {
		m[r.metric] = median(samples[i])
	}
	m["journal.records_per_txn"] = ratio(float64(emitted()-j0), float64(clients[journalRung].committed))
	m["journal.capture_ratio"] = ratio(m["ladder.txn_manager_ns"], m["ladder.txn_manager_nojournal_ns"])
	m["wire.marginal_us_per_txn"] = (m["ladder.lockall_wire_ns"] - m["ladder.lockall_manager_ns"]) / 1e3
	wireMetrics(m, ws.cli.load().sub(cli0), ws.svr.load().sub(svr0), clients[wireRung].committed)
	m["kv.attempts_per_txn"] = ratio(float64(clients[kvRung].attempts), float64(clients[kvRung].committed))

	var tracers []*tracer
	for i, r := range rungs {
		if !r.traced {
			continue
		}
		c := clients[i]
		c.tr = newTracer(epoch, ladderTraced*8)
		tracers = append(tracers, c.tr)
		for k := 0; k < ladderTraced && !c.tr.full; k++ {
			if err := run(i, 1); err != nil {
				return nil, nil, err
			}
		}
	}
	collectSpans(tracers).fill(m)

	for i, s := range systems {
		c := clients[i]
		t.attempted += c.committed + c.failed
		t.check(s.check(ctx))
	}
	return m, tracers, nil
}

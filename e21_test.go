package hwtwbg

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// stallStress runs the E20 contended workload (8 workers, two random
// hot X locks each, real deadlocks throughout) under the labelled
// activation — the stop-the-world oracle or the production snapshot
// detector — ticked every millisecond from a test-side ticker, and
// returns the manager's lifetime stats plus the worst per-activation
// numbers.
func stallStress(t *testing.T, label string) (Stats, time.Duration) {
	t.Helper()
	m, detect := openLabelled(label, Options{Shards: 8, HistorySize: 512})
	defer m.Close()
	stop := make(chan struct{})
	ticking := make(chan struct{})
	go func() {
		defer close(ticking)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				detect()
			}
		}
	}()
	const (
		workers = 8
		rounds  = 150
		hotKeys = 6
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			ctx := context.Background()
			for i := 0; i < rounds; i++ {
				tx := m.Begin()
				a := ResourceID(fmt.Sprintf("hot%d", rng.Intn(hotKeys)))
				b := ResourceID(fmt.Sprintf("hot%d", rng.Intn(hotKeys)))
				if err := tx.Lock(ctx, a, X); err != nil {
					tx.Abort()
					continue
				}
				runtime.Gosched()
				if err := tx.Lock(ctx, b, X); err != nil {
					tx.Abort()
					continue
				}
				tx.Commit()
			}
		}(int64(w + 1))
	}
	wg.Wait()
	close(stop)
	<-ticking

	st := m.Stats()
	var worstActivation time.Duration
	reps, _ := m.Activations()
	for _, r := range reps {
		if r.Total > worstActivation {
			worstActivation = r.Total
		}
	}
	return st, worstActivation
}

// TestE21StallComparison is the EXPERIMENTS.md E21 harness: the same
// deadlock-heavy workload under the stop-the-world oracle and the
// production snapshot detector, with Stats.STWMax as the worst stall
// either imposed on the grant path (the full pause for STW, the longest
// single-shard copy hold for snapshot). The snapshot detector must
// stall the grant path less than stop-the-world does — that is E21's
// claim. Run with -v for the numbers E21 quotes.
func TestE21StallComparison(t *testing.T) {
	stSTW, worstSTW := stallStress(t, labelSTW)
	stSnap, worstSnap := stallStress(t, labelSnapshot)

	if stSTW.Runs == 0 || stSnap.Runs == 0 {
		t.Fatalf("detector idle: stw %d runs, snapshot %d runs", stSTW.Runs, stSnap.Runs)
	}
	if stSTW.Aborted == 0 || stSnap.Aborted == 0 {
		t.Fatalf("workload produced no deadlocks: stw %+v, snapshot %+v", stSTW, stSnap)
	}
	t.Logf("stw:      runs=%d cycles=%d aborted=%d stall max=%v mean=%v (worst activation %v)",
		stSTW.Runs, stSTW.CyclesSearched, stSTW.Aborted, stSTW.STWMax,
		stSTW.STWTotal/time.Duration(stSTW.Runs), worstSTW)
	t.Logf("snapshot: runs=%d cycles=%d aborted=%d stall max=%v mean=%v (worst activation %v, false=%d validations=%d)",
		stSnap.Runs, stSnap.CyclesSearched, stSnap.Aborted, stSnap.STWMax,
		stSnap.STWTotal/time.Duration(stSnap.Runs), worstSnap, stSnap.FalseCycles, stSnap.Validations)

	// The headline: the grant-path stall must drop. STW holds every
	// shard for the whole activation (build+search+resolve); the
	// snapshot detector's stall is one shard's copy-out, a strict
	// subset of that work. The gate is on the mean — the max is a
	// single sample and one unlucky preemption mid-copy on a loaded
	// host can inflate it past a lucky STW run (it is logged above and
	// quoted in E21 from quiet runs).
	meanSTW := stSTW.STWTotal / time.Duration(stSTW.Runs)
	meanSnap := stSnap.STWTotal / time.Duration(stSnap.Runs)
	if meanSnap >= meanSTW {
		t.Errorf("mean grant-path stall did not drop: snapshot %v vs stw %v", meanSnap, meanSTW)
	}
	if stSnap.STWMax >= stSTW.STWMax {
		t.Logf("note: max stall sample inflated by scheduling noise (snapshot %v vs stw %v)", stSnap.STWMax, stSTW.STWMax)
	}
}

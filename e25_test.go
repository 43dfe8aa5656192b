package hwtwbg

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// e25Run drives the E25 churn-skewed workload on one manager: every
// shard pinned with perShard long-held resources (so each shard's copy
// has real weight), then rounds of short-transaction churn confined to
// shard 0, each round closed by one manual detector activation. It
// returns the summed copy-phase time across the measured activations,
// the shard copy/skip totals, and a decision transcript for A/B
// comparison. With full set, every activation is all-dirty (a full
// copy-out through the same machinery); otherwise it is the production
// incremental activation.
func e25Run(t testing.TB, full bool, rounds int) (copyTotal time.Duration, copied, skipped int, decisions string) {
	const (
		shards   = 32
		perShard = 16
	)
	m := Open(Options{Shards: shards})
	defer m.Close()
	detect := e25Detect(m, full)
	ctx := context.Background()

	pin := m.Begin()
	for i := 0; i < shards; i++ {
		for j := 0; j < perShard; j++ {
			if err := pin.Lock(ctx, shardResource(t, m, uint32(i), j), S); err != nil {
				t.Fatal(err)
			}
		}
	}
	detect() // warm-up: both modes pay one full copy here, outside the measurement

	for round := 0; round < rounds; round++ {
		for i := 0; i < 4; i++ {
			r := shardResource(t, m, 0, 1000+round*4+i)
			tx := m.Begin()
			if err := tx.Lock(ctx, r, X); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			tx.Recycle()
		}
		st := detect()
		decisions += fmt.Sprintf("%d/%d/%d;", st.CyclesSearched, st.Aborted, st.Repositioned)
		last, ok := m.LastActivation()
		if !ok {
			t.Fatal("no activation report after Detect")
		}
		copyTotal += last.Copy
		copied += st.ShardsCopied
		skipped += st.ShardsSkipped
	}
	return copyTotal, copied, skipped, decisions
}

// e25Detect returns the activation an E25 arm drives: all-dirty when
// full, the production incremental one otherwise.
func e25Detect(m *Manager, full bool) func() Stats {
	if full {
		return func() Stats { return detectAllDirty(m) }
	}
	return m.Detect
}

// TestE25IncrementalAB is the EXPERIMENTS.md E25 harness: the same
// churn-skewed workload (one hot shard out of 32, the rest pinned but
// untouched) under all-dirty (full-copy) and incremental activations in
// the same process. The incremental detector must reach identical decisions
// while copying at most 20% of its shard visits, and its summed
// copy-phase time must come in at least 3x below the full-copy run's.
// Run with -v for the measured numbers.
func TestE25IncrementalAB(t *testing.T) {
	const rounds = 40
	fullCopyNs, fullCopied, fullSkipped, fullDec := e25Run(t, true, rounds)
	incCopyNs, incCopied, incSkipped, incDec := e25Run(t, false, rounds)

	t.Logf("full:        copy=%v copied=%d skipped=%d", fullCopyNs, fullCopied, fullSkipped)
	t.Logf("incremental: copy=%v copied=%d skipped=%d", incCopyNs, incCopied, incSkipped)

	if fullDec != incDec {
		t.Fatalf("decisions diverge:\nfull:        %s\nincremental: %s", fullDec, incDec)
	}
	if fullSkipped != 0 {
		t.Fatalf("full-copy run skipped %d shards, want 0", fullSkipped)
	}
	total := incCopied + incSkipped
	if total == 0 {
		t.Fatal("incremental run reported no shard visits")
	}
	if frac := float64(incCopied) / float64(total); frac > 0.20 {
		t.Fatalf("incremental run copied %d of %d shard visits (%.0f%%), want <= 20%%", incCopied, total, 100*frac)
	}
	if incCopyNs <= 0 {
		t.Fatal("incremental run reported zero copy time")
	}
	if ratio := float64(fullCopyNs) / float64(incCopyNs); ratio < 3 {
		t.Fatalf("copy-time drop %.1fx (full %v vs incremental %v), want >= 3x", ratio, fullCopyNs, incCopyNs)
	}
}

// e25CostRun feeds the cost model a skewed diet: 31 pinned cold
// shards, hot-shard churn closed by idle activations, and one
// two-transaction deadlock per round (confined to the hot shard,
// resolved by a manual activation). The idle:deadlock activation mix
// is 8:1 — deadlock-resolving activations mutate the snapshot and so
// force a full recopy either way; the incremental win lives in the
// idle majority. Returns the model's final state (D̂ and the derived
// T*) and the victims' mean blocked time at abort.
func e25CostRun(t *testing.T, full bool, rounds int) (CostModelState, time.Duration) {
	t.Helper()
	const shards = 32
	m := Open(Options{
		Shards:     shards,
		Scheduling: SchedulingCostModel,
		Period:     time.Second, // background ticker stays out of the way
	})
	defer m.Close()
	detect := e25Detect(m, full)
	ctx := context.Background()

	pin := m.Begin()
	for i := 0; i < shards; i++ {
		for j := 0; j < 16; j++ {
			if err := pin.Lock(ctx, shardResource(t, m, uint32(i), j), S); err != nil {
				t.Fatal(err)
			}
		}
	}
	r1 := shardResource(t, m, 0, 2000)
	r2 := shardResource(t, m, 0, 2001)
	detect() // warm-up full copy

	var victimNs int64
	victims := 0
	for round := 0; round < rounds; round++ {
		for k := 0; k < 8; k++ {
			r := shardResource(t, m, 0, 3000+(round*8+k))
			tx := m.Begin()
			if err := tx.Lock(ctx, r, X); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			tx.Recycle()
			if st := detect(); st.Aborted != 0 {
				t.Fatalf("idle activation aborted someone: %+v", st)
			}
		}
		a, b := m.Begin(), m.Begin()
		if err := a.Lock(ctx, r1, X); err != nil {
			t.Fatal(err)
		}
		if err := b.Lock(ctx, r2, X); err != nil {
			t.Fatal(err)
		}
		errs := make(chan error, 2)
		spans := make(chan time.Duration, 2)
		cross := func(tx *Txn, r ResourceID) {
			start := time.Now()
			err := tx.Lock(ctx, r, X)
			if errors.Is(err, ErrAborted) {
				spans <- time.Since(start)
			}
			errs <- err
		}
		go cross(a, r2)
		waitBlocked(t, m, a.ID())
		go cross(b, r1)
		waitBlocked(t, m, b.ID())
		if st := detect(); st.Aborted != 1 {
			t.Fatalf("round %d: activation = %+v, want one abort", round, st)
		}
		<-errs
		<-errs
		victimNs += int64(<-spans)
		victims++
		a.Abort()
		b.Abort()
		a.Recycle()
		b.Recycle()
	}
	if victims == 0 {
		t.Fatal("no victims recorded")
	}
	return m.CostModel(), time.Duration(victimNs / int64(victims))
}

// TestE25CostModelFeedthrough checks the scheduling chain: the
// incremental snapshot shrinks ActivationReport.Total, Total is the
// cost model's D̂ sample, so on a skewed workload the incremental
// manager's D̂ must land below the full-copy manager's, pulling its
// cost-minimizing period T* down with it (T* grows with sqrt(D̂)).
// Run with -v for D̂, T* and the mean victim blocked time.
func TestE25CostModelFeedthrough(t *testing.T) {
	const rounds = 25
	cmFull, victimFull := e25CostRun(t, true, rounds)
	cmInc, victimInc := e25CostRun(t, false, rounds)

	t.Logf("full:        D-hat=%v T*=%v mean-victim-blocked=%v", cmFull.DetectCost, cmFull.Period, victimFull)
	t.Logf("incremental: D-hat=%v T*=%v mean-victim-blocked=%v", cmInc.DetectCost, cmInc.Period, victimInc)

	if cmFull.Samples == 0 || cmInc.Samples == 0 {
		t.Fatalf("cost model saw no samples: full %d, incremental %d", cmFull.Samples, cmInc.Samples)
	}
	if cmInc.DetectCost >= cmFull.DetectCost {
		t.Fatalf("incremental D-hat %v not below full-copy D-hat %v on a skewed workload",
			cmInc.DetectCost, cmFull.DetectCost)
	}
}

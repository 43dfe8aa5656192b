//go:build invariants

package hwtwbg

// Tests that only exist in `go test -tags=invariants` runs: they arm
// Options.Audit and require the runtime invariant auditor to check
// every detector activation — TDR-1 aborts, TDR-2 repositionings and
// idle passes, under the production activation and the stop-the-world
// oracle — and to find nothing.
// The differential and false-cycle tests in differential_test.go also
// arm the auditor, so a tagged run re-verifies the paper's properties
// across the whole randomized workload suite via assertAuditClean.

import (
	"context"
	"testing"
)

// auditedDeadlock builds the two-transaction cross-shard deadlock on m
// and returns the channel carrying the two blocked Locks' errors.
func auditedDeadlock(t *testing.T, m *Manager) chan error {
	t.Helper()
	rs := distinctShardResources(t, m, 2)
	ctx := context.Background()
	a, b := m.Begin(), m.Begin()
	if err := a.Lock(ctx, rs[0], X); err != nil {
		t.Fatal(err)
	}
	if err := b.Lock(ctx, rs[1], X); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	go func() { errs <- a.Lock(ctx, rs[1], X) }()
	waitBlocked(t, m, a.ID())
	go func() { errs <- b.Lock(ctx, rs[0], X) }()
	waitBlocked(t, m, b.ID())
	return errs
}

// TestAuditorChecksEveryActivation runs a TDR-1 activation and an idle
// activation under the production activation and the stop-the-world
// oracle and requires one clean, correctly-labelled report per
// activation.
func TestAuditorChecksEveryActivation(t *testing.T) {
	for _, det := range []string{labelSTW, labelSnapshot} {
		t.Run(det, func(t *testing.T) {
			m, detect := openLabelled(det, Options{Shards: 4, Audit: true})
			defer m.Close()
			errs := auditedDeadlock(t, m)
			if st := detect(); st.Aborted != 1 {
				t.Fatalf("activation = %+v, want one abort", st)
			}
			<-errs
			<-errs
			if st := detect(); st.CyclesSearched != 0 {
				t.Fatalf("second activation = %+v, want idle", st)
			}
			if n := m.AuditRuns(); n != 2 {
				t.Fatalf("AuditRuns = %d, want 2 (one per activation)", n)
			}
			reps := m.AuditReports()
			if len(reps) != 2 {
				t.Fatalf("got %d audit reports, want 2", len(reps))
			}
			for i, rep := range reps {
				if rep.Detector != det {
					t.Errorf("report %d labelled %q, want %q", i, rep.Detector, det)
				}
				if rep.Seq != i+1 {
					t.Errorf("report %d has Seq %d, want %d", i, rep.Seq, i+1)
				}
				if !rep.Ok() {
					t.Errorf("%s", rep)
				}
			}
		})
	}
}

// TestAuditorTDR2Activation replays the TestManualDetectAndTDR2 tableau
// — a deadlock resolved by queue repositioning, nobody aborted — with
// the auditor armed: the repositioning must survive the genuine-cycle
// and post-resolution acyclicity checks.
func TestAuditorTDR2Activation(t *testing.T) {
	for _, det := range []string{labelSTW, labelSnapshot} {
		t.Run(det, func(t *testing.T) {
			m, detect := openLabelled(det, Options{Audit: true})
			defer m.Close()
			ctx := context.Background()
			t1, t2, t3 := m.Begin(), m.Begin(), m.Begin()
			if err := t1.Lock(ctx, "q", IS); err != nil {
				t.Fatal(err)
			}
			if err := t3.Lock(ctx, "h", X); err != nil {
				t.Fatal(err)
			}
			lockErr := make(chan error, 3)
			go func() { lockErr <- t2.Lock(ctx, "q", X) }()
			waitBlocked(t, m, t2.ID())
			go func() { lockErr <- t3.Lock(ctx, "q", S) }()
			waitBlocked(t, m, t3.ID())
			go func() { lockErr <- t1.Lock(ctx, "h", S) }()
			waitBlocked(t, m, t1.ID())
			if st := detect(); st.Repositioned != 1 || st.Aborted != 0 {
				t.Fatalf("activation = %+v, want one repositioning and no aborts", st)
			}
			if n := m.AuditRuns(); n != 1 {
				t.Fatalf("AuditRuns = %d, want 1", n)
			}
			assertAuditClean(t, m)
		})
	}
}

// TestAuditorRequiresOption checks the auditor stays dormant — even in
// an invariants build — unless Options.Audit is set.
func TestAuditorRequiresOption(t *testing.T) {
	m := Open(Options{Shards: 4})
	defer m.Close()
	errs := auditedDeadlock(t, m)
	if st := m.Detect(); st.Aborted != 1 {
		t.Fatalf("activation = %+v, want one abort", st)
	}
	<-errs
	<-errs
	if n := m.AuditRuns(); n != 0 {
		t.Fatalf("AuditRuns = %d without Options.Audit, want 0", n)
	}
	if reps := m.AuditReports(); len(reps) != 0 {
		t.Fatalf("AuditReports = %v without Options.Audit, want none", reps)
	}
}

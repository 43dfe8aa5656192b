//go:build !invariants

package hwtwbg

import "hwtwbg/internal/detect"

// Without the `invariants` build tag the stop-the-world oracle's audit
// hooks compile to nothing, as audit_off.go does for the manager's. See
// stw_audit_on_test.go for the real implementation.

func (o *stwOracle) auditPreSTW() *auditState { return nil }

func (o *stwOracle) auditPostSTW(*auditState, detect.Result) {}

//go:build !invariants

package hwtwbg

import "hwtwbg/internal/detect"

// Without the `invariants` build tag the runtime invariant auditor
// compiles to nothing: the pre hooks return nil and the post hooks are
// empty, so the detector pays only two inlined nil-returning calls
// per activation. See audit_on.go for the real implementation.

type auditState struct{}

func (m *Manager) auditPreSnapshot() *auditState { return nil }

func (m *Manager) auditPostSnapshot(*auditState, detect.Result) {}

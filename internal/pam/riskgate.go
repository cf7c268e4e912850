package pam

import (
	"strconv"

	"openmfa/internal/risk"
)

// RiskGate is the adaptive-MFA decision module (§6 future work, built out
// per DESIGN.md §14): it asks the risk engine to decide the attempt right
// after the first factor and folds the outcome into the Figure 1 stack:
//
//   - deny    → refuses the attempt outright (AuthErr),
//   - step_up → cancels any MFA exemption for this attempt by setting
//     RiskForceMFA, which the Exempt module honours, so the second
//     factor is required even for whitelisted origins,
//   - skip    → the account earned an MFA bypass (policy opt-in): the
//     gate returns Success and its Control ends the stack before the
//     token module, so no prompt is shown,
//   - allow   → abstains (Ignore); the stack runs unchanged.
//
// The decision (outcome, score, reasons) is attached to the attempt's
// flight-recorder span, and the engine publishes it as a TypeRisk event on
// its bus (the admin alert channel). Outcomes feed back into the engine via
// RecordSuccess/RecordFailure from the caller (sshd does this
// automatically when a risk engine is wired).
type RiskGate struct {
	Engine *risk.Engine
}

// RiskGateControl is the stack control for the gate: a skip outcome
// (Success) terminates the stack in success before the token module, an
// abstain (Ignore) lets it continue, and a deny (AuthErr) kills it.
func RiskGateControl() Control {
	return Control{
		On:      map[Result]Action{Success: ActionDone, Ignore: ActionIgnore},
		Default: ActionDie,
	}
}

// Name implements Module.
func (m *RiskGate) Name() string { return "pam_risk_gate" }

// Authenticate implements Module.
func (m *RiskGate) Authenticate(ctx *Context) Result {
	d := m.Engine.Decide(ctx.User, ctx.RemoteAddr, ctx.now())
	if ctx.Span != nil {
		ctx.Span.SetAttr("risk.outcome", d.Outcome.String())
		ctx.Span.SetAttr("risk.score", strconv.FormatFloat(d.Score, 'f', 2, 64))
		if len(d.Reasons) > 0 {
			ctx.Span.SetAttr("risk.reasons", d.Detail())
		}
	}
	switch d.Outcome {
	case risk.OutcomeDeny:
		if ctx.Logger != nil {
			ctx.Logger.Warn("risk deny", "component", "pam", "trace", ctx.Trace,
				"module", m.Name(), "user", ctx.User, "addr", ctx.RemoteAddr, "risk", d.Detail())
		}
		if ctx.Conv != nil {
			ctx.Conv.Info("login blocked by risk policy (critical)")
		}
		return AuthErr
	case risk.OutcomeStepUp:
		if ctx.Logger != nil {
			ctx.Logger.Info("risk step-up: MFA forced", "component", "pam", "trace", ctx.Trace,
				"module", m.Name(), "user", ctx.User, "addr", ctx.RemoteAddr, "risk", d.Detail())
		}
		ctx.RiskForceMFA = true
		return Ignore
	case risk.OutcomeSkip:
		if ctx.Logger != nil {
			ctx.Logger.Info("risk skip: MFA waived", "component", "pam", "trace", ctx.Trace,
				"module", m.Name(), "user", ctx.User, "addr", ctx.RemoteAddr, "history", d.History, "risk", d.Detail())
		}
		return Success
	default:
		return Ignore
	}
}

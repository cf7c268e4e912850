// Package pam reimplements the Pluggable Authentication Modules stack
// semantics in pure Go, together with the paper's four in-house modules
// (§3.4): the public-key-success check, the MFA exemption check, the MFA
// token-code module with its four-tier enforcement policy, and the Solaris
// combination module.
//
// The engine follows Linux-PAM's generalized control syntax: every module
// result maps to an action (ok, done, bad, die, ignore, or skip-N), and
// the classic keywords required / requisite / sufficient / optional are
// provided as the conventional mappings. This makes the paper's Figure 1
// decision tree directly executable — see TestFigure1.
package pam

import (
	"errors"
	"fmt"
	"net"
	"time"

	"openmfa/internal/eventstream"
	"openmfa/internal/obs"
)

// Result is a module's verdict, a compact subset of PAM return codes.
type Result int

// Module results.
const (
	// Success is PAM_SUCCESS.
	Success Result = iota
	// Ignore is PAM_IGNORE: the module abstains.
	Ignore
	// AuthErr is PAM_AUTH_ERR: authentication failed.
	AuthErr
	// UserUnknown is PAM_USER_UNKNOWN.
	UserUnknown
	// SystemErr is PAM_SYSTEM_ERR: infrastructure failure.
	SystemErr
)

// String names the result.
func (r Result) String() string {
	switch r {
	case Success:
		return "success"
	case Ignore:
		return "ignore"
	case AuthErr:
		return "auth_err"
	case UserUnknown:
		return "user_unknown"
	case SystemErr:
		return "system_err"
	default:
		return fmt.Sprintf("Result(%d)", int(r))
	}
}

// Action is what the stack does with a module result.
type Action int

// Actions, per Linux-PAM's control value vocabulary. Positive values are
// skip counts (the [success=N] jump syntax).
const (
	// ActionIgnore: the result does not influence the stack outcome.
	ActionIgnore Action = -1 - iota
	// ActionOK: contributes success unless a failure is already recorded.
	ActionOK
	// ActionDone: like OK, then terminate the stack immediately.
	ActionDone
	// ActionBad: record failure, continue.
	ActionBad
	// ActionDie: record failure, terminate immediately.
	ActionDie
)

// Skip returns the action that jumps over the next n entries.
func Skip(n int) Action {
	if n < 1 {
		panic("pam: Skip requires n >= 1")
	}
	return Action(n)
}

// Control maps results to actions. Default applies to unmapped results.
type Control struct {
	On      map[Result]Action
	Default Action
}

func (c Control) action(r Result) Action {
	if a, ok := c.On[r]; ok {
		return a
	}
	return c.Default
}

// The four classic control keywords.

// Required: failure is recorded but the stack continues (so later modules
// still run, hiding which one failed); success contributes.
func Required() Control {
	return Control{On: map[Result]Action{Success: ActionOK, Ignore: ActionIgnore}, Default: ActionBad}
}

// Requisite: failure terminates the stack immediately.
func Requisite() Control {
	return Control{On: map[Result]Action{Success: ActionOK, Ignore: ActionIgnore}, Default: ActionDie}
}

// Sufficient: success terminates the stack successfully (unless a required
// module already failed); failure is ignored.
func Sufficient() Control {
	return Control{On: map[Result]Action{Success: ActionDone}, Default: ActionIgnore}
}

// Optional: counts only when nothing else is determinative.
func Optional() Control {
	return Control{On: map[Result]Action{Success: ActionOK}, Default: ActionIgnore}
}

// SkipOnSuccess is the [success=N default=ignore] jump used to bypass the
// password module after public-key success.
func SkipOnSuccess(n int) Control {
	return Control{On: map[Result]Action{Success: Skip(n)}, Default: ActionIgnore}
}

// Conversation is the PAM conversation function: the only channel a module
// has to the remote user.
type Conversation interface {
	// Prompt asks the user for input. echo=false means secret entry.
	Prompt(echo bool, msg string) (string, error)
	// Info displays a message without expecting input.
	Info(msg string) error
}

// Context carries one authentication attempt through the stack. Modules
// must not keep it past Authenticate: sshd reuses one Context for every
// attempt on a connection, zeroed and refilled before each.
type Context struct {
	User       string
	RemoteAddr net.IP // nil when the peer is unknown
	Addr       string // RemoteAddr formatted, if the caller has it; read by PeerAddr
	Service    string // e.g. "sshd"
	Conv       Conversation
	Now        func() time.Time

	// MFAMethod is the pairing type (soft/sms/hard/training) of the
	// second factor the token module verified; "" when none was. sshd
	// reads it to tag the login event.
	MFAMethod string
	// RiskForceMFA is set by the risk gate on a step-up: exemptions do
	// not apply to this attempt, so the token module runs.
	RiskForceMFA bool

	// Trace is the connection's trace ID (assigned by sshd). It tags
	// every structured log line this attempt produces and rides to the
	// RADIUS back end inside a Proxy-State attribute so one login can be
	// followed across all four layers.
	Trace string
	// Metrics, when set, receives per-module outcome counters and
	// latency histograms plus a per-stack outcome counter.
	Metrics *obs.Registry
	// Logger, when set, receives a structured line per module decision
	// and per module diagnostic (component=pam), carrying Trace.
	Logger *obs.Logger
	// Spans, when set, records one timing span per module (children of
	// Span when sshd provided one) plus the token module's RADIUS-RTT
	// legs, all under Trace.
	Spans *obs.SpanStore
	// Span is the enclosing span (sshd's conversation span). The engine
	// re-points it at the running module's span for the duration of each
	// Authenticate call so nested legs parent correctly.
	Span *obs.Span
	// Events, when set, receives typed auth events (second-factor use)
	// on the operational analytics bus.
	Events *eventstream.Bus
}

// startSpan opens a child of the enclosing span, or a root span under the
// attempt's trace ID when there is none. Nil-safe.
func (ctx *Context) startSpan(name string) *obs.Span {
	if ctx.Span != nil {
		return ctx.Span.StartChild(name)
	}
	return ctx.Spans.Start(ctx.Trace, name)
}

// PeerAddr returns Addr, formatted from RemoteAddr on first use if empty.
func (ctx *Context) PeerAddr() string {
	if ctx.Addr == "" && ctx.RemoteAddr != nil {
		ctx.Addr = ctx.RemoteAddr.String()
	}
	return ctx.Addr
}

func (ctx *Context) now() time.Time {
	if ctx.Now != nil {
		return ctx.Now()
	}
	return time.Now()
}

// Module is an authentication module.
type Module interface {
	Name() string
	Authenticate(ctx *Context) Result
}

// Entry is one line of a PAM stack configuration.
type Entry struct {
	Control Control
	Module  Module
}

// Stack is an ordered PAM configuration for one service.
type Stack struct {
	Service string
	Entries []Entry
}

// Authentication outcomes.
var (
	// ErrAuthFailed: a determinative module failed.
	ErrAuthFailed = errors.New("pam: authentication failure")
	// ErrEmptyStack: no module expressed an opinion.
	ErrEmptyStack = errors.New("pam: no determinative module in stack")
)

// Authenticate runs the stack. nil means entry is granted.
func (s *Stack) Authenticate(ctx *Context) error {
	err := s.run(ctx)
	if ctx.Metrics != nil {
		outcome := "granted"
		switch {
		case errors.Is(err, ErrAuthFailed):
			outcome = "denied"
		case errors.Is(err, ErrEmptyStack):
			outcome = "empty"
		case err != nil:
			outcome = "error"
		}
		ctx.Metrics.Counter("pam_stack_total", "service", s.Service, "outcome", outcome).Inc()
	}
	return err
}

func (s *Stack) run(ctx *Context) error {
	type impression int
	const (
		none impression = iota
		good
		bad
	)
	state := none

	record := func(ok bool) {
		if ok {
			if state == none {
				state = good
			}
		} else {
			// First failure wins and sticks (Linux-PAM retains the
			// first required failure).
			if state != bad {
				state = bad
			}
		}
	}

	for i := 0; i < len(s.Entries); i++ {
		e := s.Entries[i]
		// Every per-module observability hook is guarded so an
		// uninstrumented stack pays neither the time.Now() nor the
		// argument-boxing allocations.
		var start time.Time
		if ctx.Metrics != nil {
			start = time.Now()
		}
		var span *obs.Span
		if ctx.Span != nil || ctx.Spans != nil {
			span = ctx.startSpan("pam." + e.Module.Name())
		}
		prev := ctx.Span
		if span != nil {
			ctx.Span = span
		}
		res := e.Module.Authenticate(ctx)
		ctx.Span = prev
		if span != nil {
			span.SetAttr("result", res.String())
			span.End()
		}
		act := e.Control.action(res)
		if ctx.Metrics != nil {
			ctx.Metrics.Counter("pam_module_result_total",
				"module", e.Module.Name(), "result", res.String()).Inc()
			ctx.Metrics.Histogram("pam_module_duration_seconds", nil,
				"module", e.Module.Name()).ObserveSince(start)
		}
		if ctx.Logger != nil {
			ctx.Logger.Info("module decision", "component", "pam", "trace", ctx.Trace,
				"service", s.Service, "module", e.Module.Name(), "result", res.String(),
				"user", ctx.User)
		}
		switch {
		case act == ActionIgnore:
			// nothing
		case act == ActionOK:
			record(true)
		case act == ActionDone:
			record(true)
			if state == good {
				return nil
			}
			// A prior failure blocks the early success; keep going
			// so remaining required modules still run.
		case act == ActionBad:
			record(false)
		case act == ActionDie:
			record(false)
			return ErrAuthFailed
		case act >= 1: // skip N
			i += int(act)
		}
	}
	switch state {
	case good:
		return nil
	case bad:
		return ErrAuthFailed
	default:
		return ErrEmptyStack
	}
}

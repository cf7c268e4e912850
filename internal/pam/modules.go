package pam

import (
	"time"

	"openmfa/internal/accessctl"
	"openmfa/internal/authlog"
	"openmfa/internal/idm"
)

// PubkeySuccess is in-house module 1 (§3.4, Figure 1 "Public Key
// Success?"): "constructed to determine if a user has utilized public key
// authentication successfully via SSH as their first factor ... This
// module searches recent local secure system entry logs ... Information
// about the state of public key authentication is not provided from SSH to
// PAM. This module is the only mechanism known to provide this
// information."
type PubkeySuccess struct {
	Log *authlog.Log
	// Window bounds how far back the log search goes; zero means 30 s
	// (the current connection's handshake is always this recent).
	Window time.Duration
}

// Name implements Module.
func (m *PubkeySuccess) Name() string { return "pam_pubkey_success" }

// Authenticate implements Module.
func (m *PubkeySuccess) Authenticate(ctx *Context) Result {
	window := m.Window
	if window == 0 {
		window = 30 * time.Second
	}
	// The log indexes "" as any origin, so an unknown peer must not query
	// it: a key accepted from another host would waive this password.
	if ctx.RemoteAddr == nil {
		return Ignore
	}
	if m.Log.FindPubkeySuccess(ctx.User, ctx.PeerAddr(), ctx.now(), window) {
		return Success
	}
	return Ignore
}

// Password is the pam_unix stand-in: prompts for and verifies the user's
// first-factor password against the IDM.
type Password struct {
	IDM *idm.IDM
	// PromptText defaults to "Password: ".
	PromptText string
}

// Name implements Module.
func (m *Password) Name() string { return "pam_password" }

// Authenticate implements Module.
func (m *Password) Authenticate(ctx *Context) Result {
	prompt := m.PromptText
	if prompt == "" {
		prompt = "Password: "
	}
	pw, err := ctx.Conv.Prompt(false, prompt)
	if err != nil {
		return SystemErr
	}
	if err := m.IDM.Authenticate(ctx.User, pw); err != nil {
		return AuthErr
	}
	return Success
}

// Exempt is in-house module 2 (§3.4, Figure 1 "MFA Exemption Granted?"):
// compares the username and remote IP against the white/blacklist
// configuration. Granted exemption → Success (combined with a sufficient
// control this ends the stack); denied → Ignore, so processing continues
// to the token module.
type Exempt struct {
	List *accessctl.List
}

// Name implements Module.
func (m *Exempt) Name() string { return "pam_mfa_exempt" }

// Authenticate implements Module.
func (m *Exempt) Authenticate(ctx *Context) Result {
	if ctx.RiskForceMFA {
		// The risk gate flagged this attempt: exemptions do not apply,
		// the second factor is mandatory.
		if ctx.Logger != nil {
			ctx.Logger.Info("exemption suppressed by risk policy", "component", "pam", "trace", ctx.Trace,
				"module", m.Name(), "user", ctx.User)
		}
		return Ignore
	}
	d := m.List.Check(ctx.User, ctx.RemoteAddr, ctx.now())
	if d.Exempt {
		if ctx.Logger != nil {
			ctx.Logger.Info("exemption granted", "component", "pam", "trace", ctx.Trace,
				"module", m.Name(), "user", ctx.User, "addr", ctx.PeerAddr())
		}
		return Success
	}
	return Ignore
}

// SolarisCombo is in-house module 4 (§3.4): "a module specific for use on
// Oracle Solaris operating systems that combine the public key and MFA
// exemption checks to accommodate differences in PAM stack processing
// logic." Password handling on Solaris happens before the stack runs, so
// whether the first factor was a public key decides nothing here: the
// module succeeds only when the exemption applies.
type SolarisCombo struct {
	Exempt *Exempt
}

// Name implements Module.
func (m *SolarisCombo) Name() string { return "pam_solaris_combo" }

// Authenticate implements Module.
func (m *SolarisCombo) Authenticate(ctx *Context) Result {
	return m.Exempt.Authenticate(ctx)
}

package pam

import (
	"openmfa/internal/accessctl"
	"openmfa/internal/authlog"
	"openmfa/internal/idm"
	"openmfa/internal/radius"
	"openmfa/internal/risk"
)

// SSHDStackConfig collects the dependencies of the paper's Figure 1 stack.
type SSHDStackConfig struct {
	AuthLog    *authlog.Log
	IDM        *idm.IDM
	Exemptions *accessctl.List
	TokenCfg   ConfigProvider
	Pairing    PairingLookup
	Radius     *radius.Pool
	// Risk, when set, inserts the adaptive-MFA gate (§6 future work)
	// right after the first factor: a deny refuses before the second
	// factor is even attempted, a step-up forces MFA past any exemption,
	// and a skip (policy opt-in) ends the stack in success without a
	// token prompt. nil means no gate module.
	Risk *risk.Engine
}

// NewSSHDStack builds the representative Linux PAM authentication stack of
// Figure 1:
//
//	auth  [success=1 default=ignore]  pam_pubkey_success   # pubkey? skip password
//	auth  requisite                   pam_password          # first factor
//	auth  sufficient                  pam_mfa_exempt        # exemption? done
//	auth  required                    pam_mfa_token         # second factor
//
// Reading of the tree: SSH first tests for an authorized public key. The
// pubkey-success module detects that via the auth log and skips the
// password module; otherwise the user must enter a correct password
// (requisite: a wrong password terminates the stack, and sshd restarts it
// for the retry budget). Only then is the second factor processed: the
// exemption module short-circuits to success for whitelisted
// users/addresses, and finally the token module enforces the configured
// opt-in tier. With cfg.Risk set, pam_risk_gate sits between the password
// and the exemption module.
func NewSSHDStack(cfg SSHDStackConfig) *Stack {
	entries := []Entry{
		{SkipOnSuccess(1), &PubkeySuccess{Log: cfg.AuthLog}},
		{Requisite(), &Password{IDM: cfg.IDM}},
	}
	if cfg.Risk != nil {
		entries = append(entries, Entry{RiskGateControl(), &RiskGate{Engine: cfg.Risk}})
	}
	entries = append(entries,
		Entry{Sufficient(), &Exempt{List: cfg.Exemptions}},
		Entry{Required(), &Token{Config: cfg.TokenCfg, Pairing: cfg.Pairing, Radius: cfg.Radius}},
	)
	return &Stack{Service: "sshd", Entries: entries}
}

// NewSolarisStack is the Oracle Solaris variant (§3.4): the combined
// pubkey+exemption module replaces the two separate entries "to
// accommodate differences in PAM stack processing logic". Password
// handling on Solaris happens before this stack runs, so the combo module
// leads.
func NewSolarisStack(cfg SSHDStackConfig) *Stack {
	return &Stack{
		Service: "sshd-solaris",
		Entries: []Entry{
			{Sufficient(), &SolarisCombo{Exempt: &Exempt{List: cfg.Exemptions}}},
			{Required(), &Token{Config: cfg.TokenCfg, Pairing: cfg.Pairing, Radius: cfg.Radius}},
		},
	}
}

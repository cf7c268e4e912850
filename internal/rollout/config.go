// Package rollout is the phased-deployment simulator that regenerates the
// paper's evaluation (Figures 3–6 and Table 1). A configurable synthetic
// population — interactive researchers, heavily scripted accounts,
// gateways and community accounts, staff, and training accounts — lives
// through the paper's exact calendar:
//
//	2016-08-10  public announcement, opt-in ("paired" mode, phase 1)
//	2016-09-06  countdown mode (phase 2)
//	2016-10-04  MFA mandatory ("full" mode, phase 3)
//
// Both simulators (this one and the adaptive-MFA attack-mix evaluation in
// riskeval.go) run on the deployment core.New builds, so every login
// exercises the stack that ships: the Figure 1 PAM configuration, the
// exemption list, LDAP pairing lookups, and live RADIUS exchanges over UDP
// against the otpd validation engine. Pairings create real tokens; SMS
// codes travel through the SMS gateway to virtual handsets; failures hit
// the real lockout counters. Only the SSH wire framing is bypassed (the
// PAM stack is invoked in-process, see deploy.go) to keep multi-month
// simulations fast — the sshd package's own tests cover that layer.
package rollout

import (
	"time"

	"openmfa/internal/eventstream"
	"openmfa/internal/pam"
)

// Config parameterises a run. Zero values take the defaults used by
// cmd/rollout and EXPERIMENTS.md.
type Config struct {
	// Users is the population size. The paper's deployment exceeded
	// 10,000 accounts; the default 1,200 preserves every shape at
	// laptop scale (see DESIGN.md §4).
	Users int
	// Seed drives all randomness; runs are deterministic per seed.
	Seed int64
	// Start and End bound the simulated calendar (inclusive).
	Start, End time.Time
	// Announce, Phase2, Phase3 are the transition dates.
	Announce, Phase2, Phase3 time.Time
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
	// Events is the deployment's analytics bus: one login event per
	// attempt (stamped on the scheduled simulation day) plus whatever the
	// components publish (SMS, lockouts, enrolments, RADIUS decisions).
	// Run folds it with an authwatch.Watcher into the login series of
	// Figures 3 and 4; nil gives the run a bus of its own. The bus
	// consumes no randomness, so further subscribers change no figure.
	Events *eventstream.Bus
}

func (c Config) withDefaults() Config {
	if c.Users == 0 {
		c.Users = 1200
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Start.IsZero() {
		c.Start = time.Date(2016, 8, 1, 0, 0, 0, 0, time.UTC)
	}
	if c.End.IsZero() {
		c.End = time.Date(2017, 3, 31, 0, 0, 0, 0, time.UTC)
	}
	if c.Announce.IsZero() {
		c.Announce = time.Date(2016, 8, 10, 0, 0, 0, 0, time.UTC)
	}
	if c.Phase2.IsZero() {
		c.Phase2 = time.Date(2016, 9, 6, 0, 0, 0, 0, time.UTC)
	}
	if c.Phase3.IsZero() {
		c.Phase3 = time.Date(2016, 10, 4, 0, 0, 0, 0, time.UTC)
	}
	return c
}

// modeFor returns the enforcement tier in effect on a date.
func (c Config) modeFor(day time.Time) pam.Mode {
	switch {
	case !day.Before(c.Phase3):
		return pam.ModeFull
	case !day.Before(c.Phase2):
		return pam.ModeCountdown
	default:
		// Phase 1 and the hidden beta before the announcement both run
		// "paired" (§5: "PAM modules were in place and set to the
		// 'paired' opt-in mode").
		return pam.ModePaired
	}
}

// Series names produced by Run.
const (
	SeriesUniqueMFAUsers  = "unique_mfa_users" // Figure 3
	SeriesTrafficAll      = "traffic_all"      // Figure 4, black bars
	SeriesTrafficExternal = "traffic_external" // Figure 4, red bars
	SeriesTrafficExtMFA   = "traffic_ext_mfa"  // Figure 4, blue bars
	SeriesTicketsTotal    = "tickets_total"    // Figure 5
	SeriesTicketsMFA      = "tickets_mfa"      // Figure 5
	SeriesPairingsNew     = "pairings_new"     // Figure 6
)

package sshd

import (
	"errors"
	"strings"
	"testing"
	"time"

	"openmfa/internal/geoip"
	"openmfa/internal/pam"
	"openmfa/internal/risk"
)

// TestRiskFeedbackLoop verifies the sshd → risk-engine wiring: outcomes
// recorded by the server feed the failure-pressure signal, so a
// brute-force burst drives the account to critical and the gate denies
// even the correct credentials.
func TestRiskFeedbackLoop(t *testing.T) {
	h := newHarness(t, "")
	h.addUser(t, "victim", "right")
	code := h.pairSoft(t, "victim")

	engine := risk.New(risk.Options{Geo: geoip.Synthetic()})
	h.server.Risk = engine
	// Swap in the risk-gated stack sharing all the same back ends.
	*h.server.Stack = *pam.NewSSHDStack(pam.SSHDStackConfig{
		AuthLog:    h.alog,
		IDM:        h.idm,
		Exemptions: h.server.Stack.Entries[2].Module.(*pam.Exempt).List,
		TokenCfg:   h.mode,
		Pairing:    h.otp,
		Radius:     h.server.Stack.Entries[3].Module.(*pam.Token).Radius,
		Risk:       engine,
	})

	// A clean login works and builds history.
	good := pwTokenResponder("right", code)
	c, err := Dial(h.addr(), DialOptions{User: "victim", Responder: good})
	if err != nil {
		t.Fatalf("baseline login failed: %v", err)
	}
	c.Close()

	// Brute force: 4 connections × 3 password attempts = 12 failures,
	// each recorded by sshd into the engine (12 × 0.12 = 1.44 ≥ 1.20).
	bad := &FuncResponder{}
	bad.Fn = func(echo bool, prompt string) (string, error) { return "wrong", nil }
	for i := 0; i < 4; i++ {
		Dial(h.addr(), DialOptions{User: "victim", Responder: bad})
		h.sim.Advance(time.Minute)
	}

	// Now even the right password + right token is refused by the gate.
	_, err = Dial(h.addr(), DialOptions{User: "victim", Responder: good})
	if !errors.Is(err, ErrDenied) {
		t.Fatalf("post-burst login err = %v, want denied by risk gate", err)
	}

	// After the 30-minute pressure window drains, service resumes.
	h.sim.Advance(45 * time.Minute)
	c2, err := Dial(h.addr(), DialOptions{User: "victim", Responder: good})
	if err != nil {
		t.Fatalf("login after cool-down failed: %v", err)
	}
	c2.Close()
}

// TestRiskGateDoesNotBreakGateways ensures the risk stack leaves exempt
// automation untouched when its pattern is familiar.
func TestRiskGateDoesNotBreakGateways(t *testing.T) {
	h := newHarness(t, "permit : gw : ALL : ALL")
	h.addUser(t, "gw", "pw")
	engine := risk.New(risk.Options{Geo: geoip.Synthetic()})
	h.server.Risk = engine
	*h.server.Stack = *pam.NewSSHDStack(pam.SSHDStackConfig{
		AuthLog:    h.alog,
		IDM:        h.idm,
		Exemptions: h.server.Stack.Entries[2].Module.(*pam.Exempt).List,
		TokenCfg:   h.mode,
		Pairing:    h.otp,
		Radius:     h.server.Stack.Entries[3].Module.(*pam.Token).Radius,
		Risk:       engine,
	})

	pwOnly := &FuncResponder{}
	pwOnly.Fn = func(echo bool, prompt string) (string, error) {
		if strings.Contains(prompt, "Password") {
			return "pw", nil
		}
		t.Errorf("unexpected prompt %q", prompt)
		return "", nil
	}
	for i := 0; i < 5; i++ {
		c, err := Dial(h.addr(), DialOptions{User: "gw", Responder: pwOnly})
		if err != nil {
			t.Fatalf("gateway login %d failed: %v", i, err)
		}
		c.Close()
		h.sim.Advance(time.Hour)
	}
}

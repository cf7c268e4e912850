package sshd

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"openmfa/internal/accessctl"
	"openmfa/internal/authlog"
	"openmfa/internal/clock"
	"openmfa/internal/eventstream"
	"openmfa/internal/idm"
	"openmfa/internal/otp"
	"openmfa/internal/otpd"
	"openmfa/internal/pam"
	"openmfa/internal/radius"
	"openmfa/internal/store"
)

var t0 = time.Date(2016, 10, 10, 9, 0, 0, 0, time.UTC)

type harness struct {
	sim    *clock.Sim
	idm    *idm.IDM
	otp    *otpd.Server
	alog   *authlog.Log
	server *Server
	mode   *pam.StaticConfig
}

func newHarness(t testing.TB, aclRules string) *harness {
	t.Helper()
	sim := clock.NewSim(t0)
	h := &harness{
		sim: sim,
		idm: idm.New(store.OpenMemory(), sim),
	}
	var err error
	h.otp, err = otpd.New(otpd.Config{
		DB:            store.OpenMemory(),
		EncryptionKey: bytes.Repeat([]byte{3}, 32),
		Clock:         sim,
		SMS:           otpd.SMSSenderFunc(func(string, string) error { return nil }),
	})
	if err != nil {
		t.Fatal(err)
	}
	h.alog, err = authlog.New("", 1024)
	if err != nil {
		t.Fatal(err)
	}
	rules, err := accessctl.Parse(aclRules)
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("sshd-test-secret")
	rsrv := &radius.Server{Secret: secret, Handler: &otpd.RadiusHandler{OTP: h.otp}}
	if err := rsrv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rsrv.Close() })

	mode := pam.StaticConfig{Mode: pam.ModeFull}
	h.mode = &mode
	stack := pam.NewSSHDStack(pam.SSHDStackConfig{
		AuthLog:    h.alog,
		IDM:        h.idm,
		Exemptions: accessctl.NewList(rules),
		TokenCfg:   h.mode,
		Pairing:    h.otp,
		Radius:     radius.NewPool([]string{rsrv.Addr().String()}, secret, 2*time.Second, 0),
	})
	h.server = &Server{
		IDM: h.idm, AuthLog: h.alog, Stack: stack, Clock: sim,
		Banner: "** MFA required: pair a device at https://portal.hpc.example **",
	}
	if err := h.server.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.server.Close() })
	return h
}

func (h *harness) addr() string { return h.server.Addr().String() }

func (h *harness) addUser(t testing.TB, user, pw string) {
	t.Helper()
	if _, err := h.idm.Create(user, user+"@x", pw, idm.ClassUser); err != nil {
		t.Fatal(err)
	}
}

func (h *harness) pairSoft(t testing.TB, user string) func() string {
	t.Helper()
	enr, err := h.otp.InitSoftToken(user)
	if err != nil {
		t.Fatal(err)
	}
	return func() string {
		c, _ := otp.TOTP(enr.Secret, h.sim.Now(), h.otp.OTPOptions())
		return c
	}
}

// responder answers password prompts with pw and token prompts with code().
func pwTokenResponder(pw string, code func() string) *FuncResponder {
	r := &FuncResponder{}
	r.Fn = func(echo bool, prompt string) (string, error) {
		switch {
		case strings.Contains(prompt, "Password"):
			return pw, nil
		case strings.Contains(prompt, "Token"):
			if code == nil {
				return "000000", nil
			}
			return code(), nil
		default:
			return "", nil // acknowledgements
		}
	}
	return r
}

func TestPasswordPlusTokenLogin(t *testing.T) {
	h := newHarness(t, "")
	h.addUser(t, "alice", "pw")
	code := h.pairSoft(t, "alice")
	c, err := Dial(h.addr(), DialOptions{
		User: "alice", TTY: true, Responder: pwTokenResponder("pw", code),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !strings.Contains(c.Banner, "MFA required") {
		t.Fatalf("banner = %q", c.Banner)
	}
	out, err := c.Exec("whoami")
	if err != nil || out != "alice" {
		t.Fatalf("exec = %q, %v", out, err)
	}
	if h.server.Accepted() != 1 {
		t.Fatalf("accepted = %d", h.server.Accepted())
	}
}

func TestPubkeySkipsPassword(t *testing.T) {
	h := newHarness(t, "")
	h.addUser(t, "bob", "pw")
	code := h.pairSoft(t, "bob")
	pub, priv, _ := ed25519.GenerateKey(nil)
	h.idm.AddPublicKey("bob", pub)

	var prompts []string
	r := &FuncResponder{}
	r.Fn = func(echo bool, prompt string) (string, error) {
		prompts = append(prompts, prompt)
		return code(), nil
	}
	c, err := Dial(h.addr(), DialOptions{User: "bob", Key: priv, Responder: r})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, p := range prompts {
		if strings.Contains(p, "Password") {
			t.Fatalf("password prompted despite pubkey: %v", prompts)
		}
	}
	if len(prompts) != 1 || !strings.Contains(prompts[0], "Token") {
		t.Fatalf("prompts = %v", prompts)
	}
}

func TestUnauthorizedKeyFallsBackToPassword(t *testing.T) {
	h := newHarness(t, "")
	h.addUser(t, "bob", "pw")
	code := h.pairSoft(t, "bob")
	_, stranger, _ := ed25519.GenerateKey(nil) // never registered
	r := pwTokenResponder("pw", code)
	c, err := Dial(h.addr(), DialOptions{User: "bob", Key: stranger, Responder: r})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
}

func TestWrongPasswordThreeTriesThenDisconnect(t *testing.T) {
	h := newHarness(t, "")
	h.addUser(t, "alice", "right")
	h.pairSoft(t, "alice")
	attempts := 0
	r := &FuncResponder{}
	r.Fn = func(echo bool, prompt string) (string, error) {
		attempts++
		return "wrong", nil
	}
	_, err := Dial(h.addr(), DialOptions{User: "alice", Responder: r})
	if !errors.Is(err, ErrDenied) {
		t.Fatalf("err = %v", err)
	}
	if attempts != DefaultMaxAuthTries {
		t.Fatalf("password attempts = %d, want %d", attempts, DefaultMaxAuthTries)
	}
	if h.server.Rejected() != 1 {
		t.Fatalf("rejected = %d", h.server.Rejected())
	}
}

func TestRetrySucceedsOnSecondPassword(t *testing.T) {
	h := newHarness(t, "")
	h.addUser(t, "alice", "right")
	code := h.pairSoft(t, "alice")
	pwAttempt := 0
	r := &FuncResponder{}
	r.Fn = func(echo bool, prompt string) (string, error) {
		if strings.Contains(prompt, "Password") {
			pwAttempt++
			if pwAttempt == 1 {
				return "typo", nil
			}
			return "right", nil
		}
		return code(), nil
	}
	c, err := Dial(h.addr(), DialOptions{User: "alice", Responder: r})
	if err != nil {
		t.Fatalf("second-try login failed: %v", err)
	}
	c.Close()
	if pwAttempt != 2 {
		t.Fatalf("password attempts = %d", pwAttempt)
	}
}

// attemptProbe is a module that records the shared state each attempt's
// context holds on entry, then sets it as the token module and the risk
// gate would, and fails the connection's first attempt.
type attemptProbe struct {
	mu   sync.Mutex
	seen []pam.Context
}

func (p *attemptProbe) Name() string { return "attempt_probe" }

func (p *attemptProbe) Authenticate(ctx *pam.Context) pam.Result {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.seen = append(p.seen, pam.Context{MFAMethod: ctx.MFAMethod, RiskForceMFA: ctx.RiskForceMFA, Addr: ctx.Addr})
	ctx.MFAMethod, ctx.RiskForceMFA = "soft", true
	if len(p.seen) == 1 {
		return pam.AuthErr
	}
	return pam.Success
}

// TestRetryStartsFromZeroContext: sshd reuses one PAM context for every
// attempt on a connection, and each retry must still start clean. A
// second factor recorded, or a risk step-up set, on a failed attempt must
// not reach the next one.
func TestRetryStartsFromZeroContext(t *testing.T) {
	h := newHarness(t, "")
	probe := &attemptProbe{}
	srv := &Server{
		IDM: h.idm, AuthLog: h.alog, Clock: h.sim,
		Stack: &pam.Stack{Service: "sshd", Entries: []pam.Entry{{Control: pam.Required(), Module: probe}}},
	}
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr().String(), DialOptions{User: "alice", Responder: pwTokenResponder("pw", nil)})
	if err != nil {
		t.Fatalf("login on the second attempt: %v", err)
	}
	c.Close()
	probe.mu.Lock()
	defer probe.mu.Unlock()
	if len(probe.seen) != 2 {
		t.Fatalf("%d attempts, want 2", len(probe.seen))
	}
	for i, got := range probe.seen {
		if got.MFAMethod != "" || got.RiskForceMFA || got.Addr != "127.0.0.1" {
			t.Errorf("attempt %d began with MFAMethod %q, RiskForceMFA %v, Addr %q; want a fresh context from 127.0.0.1",
				i+1, got.MFAMethod, got.RiskForceMFA, got.Addr)
		}
	}
}

func TestGatewayPubkeyExemptNonInteractive(t *testing.T) {
	h := newHarness(t, "permit : gateway1 : ALL : ALL")
	h.addUser(t, "gateway1", "pw")
	pub, priv, _ := ed25519.GenerateKey(nil)
	h.idm.AddPublicKey("gateway1", pub)
	// No responder at all: any prompt would error the login.
	c, err := Dial(h.addr(), DialOptions{User: "gateway1", Key: priv, Shell: "/bin/sh"})
	if err != nil {
		t.Fatalf("non-interactive gateway login failed: %v", err)
	}
	defer c.Close()
	out, err := c.Exec("scp data.tar remote:")
	if err != nil || out != "transfer complete" {
		t.Fatalf("exec = %q, %v", out, err)
	}
}

func TestMultiplexing(t *testing.T) {
	h := newHarness(t, "")
	h.addUser(t, "alice", "pw")
	code := h.pairSoft(t, "alice")
	tokenPrompts := 0
	r := &FuncResponder{}
	r.Fn = func(echo bool, prompt string) (string, error) {
		if strings.Contains(prompt, "Token") {
			tokenPrompts++
			return code(), nil
		}
		return "pw", nil
	}
	c, err := Dial(h.addr(), DialOptions{User: "alice", TTY: true, Responder: r})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// "one connection ... established via MFA and subsequent connections
	// to the same host ... utilize the already existing SSH connection."
	for i := 0; i < 5; i++ {
		if err := c.OpenChannel(); err != nil {
			t.Fatalf("channel %d: %v", i, err)
		}
	}
	if tokenPrompts != 1 {
		t.Fatalf("token prompted %d times; multiplexing must not re-auth", tokenPrompts)
	}
	// The auth log shows 1 + 5 session opens, 5 of them mux.
	var opens, mux int
	h.alog.ScanRecent(func(e authlog.Event) bool {
		if e.Type == authlog.SessionOpen {
			opens++
			if e.Detail == "mux" {
				mux++
			}
		}
		return true
	})
	if opens != 6 || mux != 5 {
		t.Fatalf("opens=%d mux=%d", opens, mux)
	}
}

func TestAuthlogTTYTelemetry(t *testing.T) {
	h := newHarness(t, "")
	h.addUser(t, "scripted", "pw")
	h.mode.Mode = pam.ModeOff // single factor for this telemetry test
	c, err := Dial(h.addr(), DialOptions{
		User: "scripted", TTY: false, Shell: "/usr/bin/scp",
		Responder: pwTokenResponder("pw", nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	found := false
	h.alog.ScanRecent(func(e authlog.Event) bool {
		if e.Type == authlog.SessionOpen && e.User == "scripted" {
			found = true
			if e.TTY || e.Shell != "/usr/bin/scp" {
				t.Fatalf("telemetry = %+v", e)
			}
			return false
		}
		return true
	})
	if !found {
		t.Fatal("no session-open event")
	}
}

func TestExecBeforeAuthRejected(t *testing.T) {
	c := &Client{}
	if _, err := c.Exec("whoami"); err == nil {
		t.Fatal("exec without auth succeeded")
	}
	if err := c.OpenChannel(); err == nil {
		t.Fatal("channel without auth succeeded")
	}
}

func TestExecCommandSet(t *testing.T) {
	h := newHarness(t, "")
	h.mode.Mode = pam.ModeOff
	h.addUser(t, "u", "pw")
	c, err := Dial(h.addr(), DialOptions{User: "u", Responder: pwTokenResponder("pw", nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for cmd, want := range map[string]string{
		"hostname":   "login1.hpc.example",
		"whoami":     "u",
		"squeue":     "JOBID",
		"frobnicate": "command simulated",
	} {
		out, err := c.Exec(cmd)
		if err != nil || !strings.Contains(out, want) {
			t.Fatalf("exec %q = %q, %v", cmd, out, err)
		}
	}
	if out, _ := c.Exec("date"); !strings.Contains(out, "2016-10-10") {
		t.Fatalf("date = %q", out)
	}
}

func TestLockoutAfterTwentyBadTokens(t *testing.T) {
	// End-to-end: repeated bad token codes over SSH trip the otpd
	// lockout; a correct code is then refused until an admin reset.
	h := newHarness(t, "")
	h.addUser(t, "victim", "pw")
	code := h.pairSoft(t, "victim")
	bad := pwTokenResponder("pw", func() string { return "000000" })
	// 3 tries per connection × 7 connections = 21 failures ≥ 20.
	for i := 0; i < 7; i++ {
		Dial(h.addr(), DialOptions{User: "victim", Responder: bad})
	}
	ti, err := h.otp.Token("victim")
	if err != nil {
		t.Fatal(err)
	}
	if ti.Active {
		t.Fatalf("token still active after %d failures", ti.FailCount)
	}
	// Correct code refused while locked out.
	if _, err := Dial(h.addr(), DialOptions{User: "victim", Responder: pwTokenResponder("pw", code)}); !errors.Is(err, ErrDenied) {
		t.Fatalf("locked-out login err = %v", err)
	}
	// Admin clears the counter; entry works again.
	if err := h.otp.ResetFailures("victim"); err != nil {
		t.Fatal(err)
	}
	h.sim.Advance(time.Minute)
	c, err := Dial(h.addr(), DialOptions{User: "victim", Responder: pwTokenResponder("pw", code)})
	if err != nil {
		t.Fatalf("post-reset login failed: %v", err)
	}
	c.Close()
}

func TestBadHelloDropped(t *testing.T) {
	h := newHarness(t, "")
	_, err := Dial(h.addr(), DialOptions{User: ""}) // empty user
	if err == nil {
		t.Fatal("empty user accepted")
	}
}

// TestLoginEventCarriesTokenOutcome: the login event sshd publishes reports
// whether the token module verified a second factor, and with which
// pairing.
func TestLoginEventCarriesTokenOutcome(t *testing.T) {
	h := newHarness(t, "permit : gw : ALL : ALL")
	bus := eventstream.NewBus(nil)
	h.server.Events = bus
	sub := bus.Subscribe(64)
	defer sub.Close()

	h.addUser(t, "soft", "pw")
	softCode := h.pairSoft(t, "soft")
	h.addUser(t, "texted", "pw")
	enr, err := h.otp.InitSMSToken("texted", "5125551234")
	if err != nil {
		t.Fatal(err)
	}
	smsCode := func() string {
		c, _ := otp.TOTP(enr.Secret, h.sim.Now(), h.otp.OTPOptions())
		return c
	}
	h.addUser(t, "gw", "pw")
	h.addUser(t, "typo", "pw")
	h.pairSoft(t, "typo")

	for _, tc := range []struct {
		user   string
		code   func() string // nil: a wrong code
		ok     bool
		mfa    bool
		method string
	}{
		{user: "soft", code: softCode, ok: true, mfa: true, method: "soft"},
		{user: "texted", code: smsCode, ok: true, mfa: true, method: "sms"},
		{user: "gw", ok: true},
		{user: "typo"},
	} {
		c, err := Dial(h.addr(), DialOptions{User: tc.user, Responder: pwTokenResponder("pw", tc.code)})
		if (err == nil) != tc.ok {
			t.Fatalf("%s: login err = %v", tc.user, err)
		}
		if c != nil {
			c.Close()
		}
		var login *eventstream.Event
		for login == nil {
			select {
			case e := <-sub.Events():
				if e.Type == eventstream.TypeLogin {
					login = &e
				}
			default:
				t.Fatalf("%s: no login event published", tc.user)
			}
		}
		if login.User != tc.user || login.MFA != tc.mfa || login.Method != tc.method {
			t.Errorf("%s: login event user=%q mfa=%v method=%q, want mfa=%v method=%q",
				tc.user, login.User, login.MFA, login.Method, tc.mfa, tc.method)
		}
		h.sim.Advance(time.Minute)
	}
}

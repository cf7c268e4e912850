package pam

import (
	"bytes"
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"openmfa/internal/accessctl"
	"openmfa/internal/authlog"
	"openmfa/internal/clock"
	"openmfa/internal/idm"
	"openmfa/internal/otp"
	"openmfa/internal/otpd"
	"openmfa/internal/radius"
	"openmfa/internal/risk"
	"openmfa/internal/store"
)

var (
	t0       = time.Date(2016, 9, 20, 10, 0, 0, 0, time.UTC)
	external = net.ParseIP("73.32.100.4")
	internal = net.ParseIP("129.114.3.7")
)

// conv is a scripted conversation. Each Prompt pops the next answer; an
// answer may be a literal string or a function evaluated at prompt time
// (for TOTP codes that must be current).
type conv struct {
	mu      sync.Mutex
	answers []any // string or func() string
	prompts []string
	infos   []string
}

func (c *conv) Prompt(echo bool, msg string) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.prompts = append(c.prompts, msg)
	if len(c.answers) == 0 {
		return "", errors.New("conv: no scripted answer")
	}
	a := c.answers[0]
	c.answers = c.answers[1:]
	switch v := a.(type) {
	case string:
		return v, nil
	case func() string:
		return v(), nil
	default:
		return "", errors.New("conv: bad answer type")
	}
}

func (c *conv) Info(msg string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.infos = append(c.infos, msg)
	return nil
}

func (c *conv) sawInfo(substr string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range c.infos {
		if strings.Contains(m, substr) {
			return true
		}
	}
	return false
}

func (c *conv) sawPrompt(substr string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range c.prompts {
		if strings.Contains(m, substr) {
			return true
		}
	}
	return false
}

// harness wires the full back end: IDM + directory + otpd + RADIUS.
type harness struct {
	sim     *clock.Sim
	idm     *idm.IDM
	otp     *otpd.Server
	authLog *authlog.Log
	acl     *accessctl.List
	pool    *radius.Pool
	mode    *StaticConfig
	stack   *Stack
	sms     *smsCapture
}

type smsCapture struct {
	mu   sync.Mutex
	msgs []string
}

func (s *smsCapture) SendSMS(phone, body string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.msgs = append(s.msgs, body)
	return nil
}

func (s *smsCapture) lastCode() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.msgs) == 0 {
		return ""
	}
	body := s.msgs[len(s.msgs)-1]
	fields := strings.Fields(body)
	return fields[len(fields)-1]
}

func newHarness(t testing.TB, aclRules string) *harness {
	t.Helper()
	sim := clock.NewSim(t0)
	h := &harness{
		sim: sim,
		idm: idm.New(store.OpenMemory(), sim),
		sms: &smsCapture{},
	}
	var err error
	h.otp, err = otpd.New(otpd.Config{
		DB:            store.OpenMemory(),
		EncryptionKey: bytes.Repeat([]byte{1}, 32),
		Clock:         sim,
		SMS:           h.sms,
		Issuer:        "TACC",
	})
	if err != nil {
		t.Fatal(err)
	}
	h.authLog, err = authlog.New("", 128)
	if err != nil {
		t.Fatal(err)
	}
	rules, err := accessctl.Parse(aclRules)
	if err != nil {
		t.Fatal(err)
	}
	h.acl = accessctl.NewList(rules)

	secret := []byte("pam-radius-secret")
	rsrv := &radius.Server{Secret: secret, Handler: &otpd.RadiusHandler{OTP: h.otp}}
	if err := rsrv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rsrv.Close() })
	h.pool = radius.NewPool([]string{rsrv.Addr().String()}, secret, 2*time.Second, 0)

	mode := StaticConfig{Mode: ModeFull}
	h.mode = &mode
	h.stack = NewSSHDStack(h.stackConfig(nil))
	return h
}

// stackConfig wires the Figure 1 modules to the harness back end; a
// non-nil engine adds the risk gate.
func (h *harness) stackConfig(engine *risk.Engine) SSHDStackConfig {
	return SSHDStackConfig{
		AuthLog:    h.authLog,
		IDM:        h.idm,
		Exemptions: h.acl,
		TokenCfg:   h.mode,
		Pairing:    h.otp,
		Radius:     h.pool,
		Risk:       engine,
	}
}

func (h *harness) addUser(t testing.TB, user, password string) {
	t.Helper()
	if _, err := h.idm.Create(user, user+"@hpc.example", password, idm.ClassUser); err != nil {
		t.Fatal(err)
	}
}

// pairSoft pairs a soft token and returns a generator for current codes.
func (h *harness) pairSoft(t testing.TB, user string) func() string {
	t.Helper()
	enr, err := h.otp.InitSoftToken(user)
	if err != nil {
		t.Fatal(err)
	}
	return func() string {
		code, err := otp.TOTP(enr.Secret, h.sim.Now(), h.otp.OTPOptions())
		if err != nil {
			t.Fatal(err)
		}
		return code
	}
}

func (h *harness) pairSMS(t testing.TB, user, phone string) {
	t.Helper()
	if _, err := h.otp.InitSMSToken(user, phone); err != nil {
		t.Fatal(err)
	}
}

func (h *harness) recordPubkey(user string, addr net.IP) {
	h.authLog.Append(authlog.Event{
		Time: h.sim.Now(), Type: authlog.AcceptedPublickey,
		User: user, Addr: addr.String(), Port: 50022, Shell: "/bin/bash",
	})
}

func (h *harness) login(t testing.TB, user string, addr net.IP, c *conv) error {
	t.Helper()
	ctx := &Context{User: user, RemoteAddr: addr, Service: "sshd", Conv: c, Now: h.sim.Now}
	return h.stack.Authenticate(ctx)
}

// TestFigure1 walks every branch of the paper's Figure 1 decision tree.
func TestFigure1(t *testing.T) {
	t.Run("pubkey+paired_token_success", func(t *testing.T) {
		h := newHarness(t, "")
		h.addUser(t, "alice", "pw")
		code := h.pairSoft(t, "alice")
		h.recordPubkey("alice", external)
		c := &conv{answers: []any{func() string { return code() }}}
		if err := h.login(t, "alice", external, c); err != nil {
			t.Fatalf("entry denied: %v", err)
		}
		if c.sawPrompt("Password") {
			t.Fatal("password prompted despite pubkey success")
		}
		if !c.sawPrompt("Token Code") {
			t.Fatal("token code never prompted")
		}
	})

	t.Run("password+paired_token_success", func(t *testing.T) {
		h := newHarness(t, "")
		h.addUser(t, "bob", "hunter2")
		code := h.pairSoft(t, "bob")
		c := &conv{answers: []any{"hunter2", func() string { return code() }}}
		if err := h.login(t, "bob", external, c); err != nil {
			t.Fatalf("entry denied: %v", err)
		}
		if !c.sawPrompt("Password") || !c.sawPrompt("Token Code") {
			t.Fatalf("prompts = %v", c.prompts)
		}
	})

	t.Run("wrong_password_denied_before_second_factor", func(t *testing.T) {
		h := newHarness(t, "")
		h.addUser(t, "bob", "hunter2")
		h.pairSoft(t, "bob")
		c := &conv{answers: []any{"wrong"}}
		if err := h.login(t, "bob", external, c); !errors.Is(err, ErrAuthFailed) {
			t.Fatalf("err = %v", err)
		}
		if c.sawPrompt("Token Code") {
			t.Fatal("second factor reached with bad first factor (brute-force filter broken)")
		}
	})

	t.Run("exemption_grants_entry_without_token", func(t *testing.T) {
		h := newHarness(t, "permit : gateway1 : ALL : ALL")
		h.addUser(t, "gateway1", "gwpw")
		c := &conv{answers: []any{"gwpw"}}
		if err := h.login(t, "gateway1", external, c); err != nil {
			t.Fatalf("exempt entry denied: %v", err)
		}
		if c.sawPrompt("Token Code") {
			t.Fatal("exempt user prompted for token")
		}
	})

	t.Run("pubkey+exemption_fully_noninteractive", func(t *testing.T) {
		// "In the event that a user account is outfitted to use public
		// key authentication and the account has been granted an MFA
		// exemption, log in may occur uninterrupted."
		h := newHarness(t, "permit : gateway1 : ALL : ALL")
		h.addUser(t, "gateway1", "gwpw")
		h.recordPubkey("gateway1", external)
		c := &conv{} // no answers: any prompt would fail
		if err := h.login(t, "gateway1", external, c); err != nil {
			t.Fatalf("non-interactive entry denied: %v", err)
		}
		if len(c.prompts) != 0 || len(c.infos) != 0 {
			t.Fatalf("interaction occurred: prompts=%v infos=%v", c.prompts, c.infos)
		}
	})

	t.Run("wrong_token_denied", func(t *testing.T) {
		h := newHarness(t, "")
		h.addUser(t, "carol", "pw")
		h.pairSoft(t, "carol")
		c := &conv{answers: []any{"pw", "000000"}}
		if err := h.login(t, "carol", external, c); !errors.Is(err, ErrAuthFailed) {
			t.Fatalf("err = %v", err)
		}
	})

	t.Run("internal_traffic_exempt_by_subnet", func(t *testing.T) {
		// "an MFA exemption is configured to allow any SSH traffic to
		// move freely from IP addresses that are a part of that
		// particular system."
		h := newHarness(t, "permit : ALL : 129.114.0.0/16 : ALL")
		h.addUser(t, "dave", "pw")
		h.pairSoft(t, "dave")
		c := &conv{answers: []any{"pw"}}
		if err := h.login(t, "dave", internal, c); err != nil {
			t.Fatalf("internal entry denied: %v", err)
		}
		if c.sawPrompt("Token Code") {
			t.Fatal("internal traffic prompted for token")
		}
		// The same user from outside must be prompted.
		code := func() string { c2, _ := h.otp.CurrentCode("dave", 0); return c2 }
		c3 := &conv{answers: []any{"pw", func() string { return code() }}}
		if err := h.login(t, "dave", external, c3); err != nil {
			t.Fatalf("external entry denied: %v", err)
		}
		if !c3.sawPrompt("Token Code") {
			t.Fatal("external traffic not prompted")
		}
	})
}

// TestFigure2 exercises the token module decision tree in full mode.
func TestFigure2(t *testing.T) {
	t.Run("sms_null_request_then_code", func(t *testing.T) {
		h := newHarness(t, "")
		h.addUser(t, "storm", "pw")
		h.pairSMS(t, "storm", "5125551234")
		c := &conv{answers: []any{"pw", func() string { return h.sms.lastCode() }}}
		if err := h.login(t, "storm", external, c); err != nil {
			t.Fatalf("SMS login denied: %v", err)
		}
		if !c.sawInfo("SMS") {
			t.Fatalf("no SMS notice shown: %v", c.infos)
		}
		if len(h.sms.msgs) != 1 {
			t.Fatalf("sms count = %d", len(h.sms.msgs))
		}
	})

	t.Run("sms_already_sent_notice", func(t *testing.T) {
		h := newHarness(t, "")
		h.addUser(t, "storm", "pw")
		h.pairSMS(t, "storm", "5125551234")
		// First login sends the SMS but the user aborts (wrong code).
		c1 := &conv{answers: []any{"pw", "000000"}}
		h.login(t, "storm", external, c1)
		// Second login while the code is active: no new SMS, notice shown.
		c2 := &conv{answers: []any{"pw", func() string { return h.sms.lastCode() }}}
		if err := h.login(t, "storm", external, c2); err != nil {
			t.Fatalf("second SMS login denied: %v", err)
		}
		if !c2.sawInfo("already been sent") {
			t.Fatalf("no already-sent notice: %v", c2.infos)
		}
		if len(h.sms.msgs) != 1 {
			t.Fatalf("sms count = %d, want 1", len(h.sms.msgs))
		}
	})

	t.Run("soft_and_hard_paths_prompt_directly", func(t *testing.T) {
		h := newHarness(t, "")
		h.addUser(t, "alice", "pw")
		code := h.pairSoft(t, "alice")
		c := &conv{answers: []any{"pw", func() string { return code() }}}
		if err := h.login(t, "alice", external, c); err != nil {
			t.Fatal(err)
		}
		if len(c.infos) != 0 {
			t.Fatalf("unexpected info messages: %v", c.infos)
		}
	})

	t.Run("unpaired_user_denied_in_full_mode", func(t *testing.T) {
		h := newHarness(t, "")
		h.addUser(t, "newbie", "pw")
		c := &conv{answers: []any{"pw", "123456"}}
		if err := h.login(t, "newbie", external, c); !errors.Is(err, ErrAuthFailed) {
			t.Fatalf("err = %v", err)
		}
		if !c.sawPrompt("Token Code") {
			t.Fatal("full mode must prompt regardless of pairing")
		}
	})
}

func TestEnforcementModes(t *testing.T) {
	t.Run("off_mode_single_factor", func(t *testing.T) {
		h := newHarness(t, "")
		h.mode.Mode = ModeOff
		h.addUser(t, "u", "pw")
		c := &conv{answers: []any{"pw"}}
		if err := h.login(t, "u", external, c); err != nil {
			t.Fatalf("off mode denied: %v", err)
		}
		if c.sawPrompt("Token Code") {
			t.Fatal("off mode prompted for token")
		}
	})

	t.Run("paired_mode_unpaired_passes", func(t *testing.T) {
		h := newHarness(t, "")
		h.mode.Mode = ModePaired
		h.addUser(t, "u", "pw")
		c := &conv{answers: []any{"pw"}}
		if err := h.login(t, "u", external, c); err != nil {
			t.Fatalf("paired mode denied unpaired user: %v", err)
		}
	})

	t.Run("paired_mode_paired_must_mfa", func(t *testing.T) {
		h := newHarness(t, "")
		h.mode.Mode = ModePaired
		h.addUser(t, "u", "pw")
		code := h.pairSoft(t, "u")
		c := &conv{answers: []any{"pw", func() string { return code() }}}
		if err := h.login(t, "u", external, c); err != nil {
			t.Fatal(err)
		}
		if !c.sawPrompt("Token Code") {
			t.Fatal("paired user not prompted in paired mode")
		}
		// And a wrong code denies entry even in paired mode.
		c2 := &conv{answers: []any{"pw", "000000"}}
		if err := h.login(t, "u", external, c2); !errors.Is(err, ErrAuthFailed) {
			t.Fatalf("err = %v", err)
		}
	})

	t.Run("countdown_unpaired_must_acknowledge", func(t *testing.T) {
		h := newHarness(t, "")
		*h.mode = StaticConfig{
			Mode:     ModeCountdown,
			Deadline: time.Date(2016, 10, 4, 0, 0, 0, 0, time.UTC),
			InfoURL:  "https://portal.hpc.example/mfa",
		}
		h.addUser(t, "u", "pw")
		c := &conv{answers: []any{"pw", ""}} // empty return = acknowledgement
		if err := h.login(t, "u", external, c); err != nil {
			t.Fatalf("countdown denied unpaired user: %v", err)
		}
		found := false
		for _, p := range c.prompts {
			if strings.Contains(p, "mandatory in 14 day(s)") &&
				strings.Contains(p, "https://portal.hpc.example/mfa") {
				found = true
			}
		}
		if !found {
			t.Fatalf("countdown notice missing or wrong: %v", c.prompts)
		}
	})

	t.Run("countdown_paired_prompts_normally", func(t *testing.T) {
		h := newHarness(t, "")
		*h.mode = StaticConfig{Mode: ModeCountdown,
			Deadline: time.Date(2016, 10, 4, 0, 0, 0, 0, time.UTC)}
		h.addUser(t, "u", "pw")
		code := h.pairSoft(t, "u")
		c := &conv{answers: []any{"pw", func() string { return code() }}}
		if err := h.login(t, "u", external, c); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("countdown_past_deadline_behaves_as_full", func(t *testing.T) {
		h := newHarness(t, "")
		*h.mode = StaticConfig{Mode: ModeCountdown,
			Deadline: time.Date(2016, 9, 1, 0, 0, 0, 0, time.UTC)} // already past
		h.addUser(t, "u", "pw")
		c := &conv{answers: []any{"pw", "123456"}}
		if err := h.login(t, "u", external, c); !errors.Is(err, ErrAuthFailed) {
			t.Fatalf("expired countdown err = %v", err)
		}
	})
}

func TestFileConfigHotReloadAndFailSafe(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pam_mfa_token.conf")
	os.WriteFile(path, []byte("mode=paired\n"), 0o644)
	fc := &FileConfig{Path: path}
	if got := fc.TokenConfig(); got.Mode != ModePaired {
		t.Fatalf("mode = %v", got.Mode)
	}
	// Rewrite → takes effect on next read.
	os.WriteFile(path, []byte("mode=countdown\ndeadline=2016-10-04\nurl=https://x\n"), 0o644)
	future := time.Now().Add(2 * time.Second)
	os.Chtimes(path, future, future)
	got := fc.TokenConfig()
	if got.Mode != ModeCountdown || got.InfoURL != "https://x" ||
		!got.Deadline.Equal(time.Date(2016, 10, 4, 0, 0, 0, 0, time.UTC)) {
		t.Fatalf("reloaded config = %+v", got)
	}
	// Corrupt file → fail-safe to full ("the token module defaults to
	// the fourth enforcement mode").
	os.WriteFile(path, []byte("mode=banana\n"), 0o644)
	future = future.Add(2 * time.Second)
	os.Chtimes(path, future, future)
	if got := fc.TokenConfig(); got.Mode != ModeFull {
		t.Fatalf("corrupt config mode = %v, want full", got.Mode)
	}
	// Missing file → full.
	fc2 := &FileConfig{Path: filepath.Join(t.TempDir(), "missing.conf")}
	if got := fc2.TokenConfig(); got.Mode != ModeFull {
		t.Fatalf("missing config mode = %v", got.Mode)
	}
}

func TestParseModeAndConfig(t *testing.T) {
	for s, want := range map[string]Mode{"off": ModeOff, " Paired ": ModePaired,
		"COUNTDOWN": ModeCountdown, "full": ModeFull} {
		got, ok := ParseMode(s)
		if !ok || got != want {
			t.Errorf("ParseMode(%q) = %v, %v", s, got, ok)
		}
	}
	if m, ok := ParseMode("bogus"); ok || m != ModeFull {
		t.Error("bogus mode must fail to ModeFull")
	}
	if _, ok := parseTokenConfig("mode=full\ndeadline=banana\n"); ok {
		t.Error("bad deadline accepted")
	}
	if _, ok := parseTokenConfig("unknown=1\n"); ok {
		t.Error("unknown key accepted")
	}
	if cfg, ok := parseTokenConfig("# comment\n\nmode=off\n"); !ok || cfg.Mode != ModeOff {
		t.Error("comments/blanks broke parsing")
	}
}

func TestSolarisStack(t *testing.T) {
	h := newHarness(t, "permit : gateway1 : ALL : ALL")
	h.addUser(t, "gateway1", "pw")
	h.addUser(t, "alice", "pw")
	code := h.pairSoft(t, "alice")
	solaris := NewSolarisStack(h.stackConfig(nil))
	// Exempt user sails through.
	ctx := &Context{User: "gateway1", RemoteAddr: external, Conv: &conv{}, Now: h.sim.Now}
	if err := solaris.Authenticate(ctx); err != nil {
		t.Fatalf("solaris exempt denied: %v", err)
	}
	// Non-exempt user needs the token.
	c := &conv{answers: []any{func() string { return code() }}}
	ctx2 := &Context{User: "alice", RemoteAddr: external, Conv: c, Now: h.sim.Now}
	if err := solaris.Authenticate(ctx2); err != nil {
		t.Fatalf("solaris token path denied: %v", err)
	}
}

func TestPubkeyModuleWindowAndAddr(t *testing.T) {
	h := newHarness(t, "")
	mod := &PubkeySuccess{Log: h.authLog}
	h.recordPubkey("u", external)
	ctx := &Context{User: "u", RemoteAddr: external, Now: h.sim.Now}
	if mod.Authenticate(ctx) != Success {
		t.Fatal("fresh pubkey event not found")
	}
	// Different source address must not match.
	ctx2 := &Context{User: "u", RemoteAddr: internal, Now: h.sim.Now}
	if mod.Authenticate(ctx2) != Ignore {
		t.Fatal("pubkey matched from wrong address")
	}
	// Stale events (35s later, default 30s window) must not match.
	h.sim.Advance(35 * time.Second)
	ctx3 := &Context{User: "u", RemoteAddr: external, Now: h.sim.Now}
	if mod.Authenticate(ctx3) != Ignore {
		t.Fatal("stale pubkey event matched")
	}
}

// TestPubkeyModuleUnknownPeer: an attempt whose peer address is unknown
// (a transport that is not TCP hands sshd none) never skips the password.
// The auth log also indexes every accepted key under "any origin", so a
// query with no address would find a key accepted from another host.
func TestPubkeyModuleUnknownPeer(t *testing.T) {
	h := newHarness(t, "")
	mod := &PubkeySuccess{Log: h.authLog}
	h.recordPubkey("u", external)
	if got := mod.Authenticate(&Context{User: "u", Now: h.sim.Now}); got != Ignore {
		t.Fatalf("unknown peer: %v, want ignore (a key from %v would waive the password)", got, external)
	}
	// The address a caller formatted already is the one queried.
	ctx := &Context{User: "u", RemoteAddr: external, Addr: external.String(), Now: h.sim.Now}
	if got := mod.Authenticate(ctx); got != Success {
		t.Fatalf("known peer: %v, want success", got)
	}
}

func TestTokenModuleRadiusOutage(t *testing.T) {
	// All RADIUS servers dead → SystemErr → required entry fails closed.
	h := newHarness(t, "")
	h.addUser(t, "u", "pw")
	h.pairSoft(t, "u")
	dead := radius.NewPool([]string{"127.0.0.1:9"}, []byte("s"), 50*time.Millisecond, 0)
	h.stack.Entries[3].Module = &Token{
		Config: h.mode, Pairing: h.otp, Radius: dead,
	}
	c := &conv{answers: []any{"pw", "123456"}}
	if err := h.login(t, "u", external, c); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("outage err = %v, want fail closed", err)
	}
}

// brokenPairing is an account store that cannot be read.
type brokenPairing struct{}

func (brokenPairing) Pairing(string) (string, error) {
	return "", errors.New("account store unreadable")
}

// TestPairingOutageFailsClosed: when the pairing lookup fails, no
// enforcement mode may waive the second factor. A paired user is
// challenged and needs a valid code; an unpaired user is denied.
func TestPairingOutageFailsClosed(t *testing.T) {
	for _, mode := range []Mode{ModePaired, ModeCountdown, ModeFull} {
		t.Run(string(mode), func(t *testing.T) {
			h := newHarness(t, "")
			*h.mode = StaticConfig{Mode: mode, Deadline: time.Date(2016, 10, 4, 0, 0, 0, 0, time.UTC)}
			h.stack.Entries[3].Module = &Token{Config: h.mode, Pairing: brokenPairing{}, Radius: h.pool}
			h.addUser(t, "paired", "pw")
			code := h.pairSoft(t, "paired")
			h.addUser(t, "unpaired", "pw")

			c := &conv{answers: []any{"pw", ""}}
			if err := h.login(t, "paired", external, c); !errors.Is(err, ErrAuthFailed) {
				t.Fatalf("paired user without a code: err = %v, want denied", err)
			}
			if !c.sawPrompt("Token Code:") {
				t.Fatalf("paired user never challenged: prompts %q", c.prompts)
			}
			c = &conv{answers: []any{"pw", "000000"}}
			if err := h.login(t, "paired", external, c); !errors.Is(err, ErrAuthFailed) {
				t.Fatalf("paired user with a wrong code: err = %v, want denied", err)
			}
			c = &conv{answers: []any{"pw", func() string { return code() }}}
			if err := h.login(t, "paired", external, c); err != nil {
				t.Fatalf("paired user with a valid code: %v", err)
			}
			c = &conv{answers: []any{"pw", ""}}
			if err := h.login(t, "unpaired", external, c); !errors.Is(err, ErrAuthFailed) {
				t.Fatalf("unpaired user: err = %v, want denied", err)
			}
		})
	}
}

// TestPairingClosedAccountStoreChallenges: an otpd whose token store is
// closed answers the pairing query with an error, not "none", so even
// paired mode challenges: the SMS-paired user gets no SMS trigger and is
// denied, and a soft-paired user still logs in with a valid code.
func TestPairingClosedAccountStoreChallenges(t *testing.T) {
	h := newHarness(t, "")
	*h.mode = StaticConfig{Mode: ModePaired}
	db := store.OpenMemory()
	closed, err := otpd.New(otpd.Config{DB: db, EncryptionKey: bytes.Repeat([]byte{1}, 32)})
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	h.stack.Entries[3].Module = &Token{Config: h.mode, Pairing: closed, Radius: h.pool}
	h.addUser(t, "storm", "pw")
	h.pairSMS(t, "storm", "+15125550100")
	h.addUser(t, "alice", "pw")
	code := h.pairSoft(t, "alice")

	c := &conv{answers: []any{"pw", "000000"}}
	if err := h.login(t, "storm", external, c); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("SMS-paired user: err = %v, want denied", err)
	}
	if !c.sawPrompt("Token Code:") {
		t.Fatalf("SMS-paired user never challenged: prompts %q", c.prompts)
	}
	if h.sms.lastCode() != "" {
		t.Fatal("an SMS was sent while the pairing was unknown")
	}
	c = &conv{answers: []any{"pw", func() string { return code() }}}
	if err := h.login(t, "alice", external, c); err != nil {
		t.Fatalf("soft-paired user with a valid code: %v", err)
	}
}

// TestDirectoryPairingLookup: the token module's pairing query reads
// otpd's token record, case-insensitively; an unpaired account and a user
// without an account both read "none".
func TestDirectoryPairingLookup(t *testing.T) {
	h := newHarness(t, "")
	h.addUser(t, "u", "p")
	h.pairSMS(t, "u", "+15125550100")
	h.addUser(t, "v", "p")
	var lp PairingLookup = h.otp
	for user, want := range map[string]string{"u": "sms", "U": "sms", "v": "none", "ghost": "none"} {
		if p, err := lp.Pairing(user); err != nil || p != want {
			t.Errorf("Pairing(%q) = %q, %v; want %q", user, p, err, want)
		}
	}
}

// BenchmarkFullStackLogin measures an end-to-end PAM authentication with
// pubkey + token over the real RADIUS/otpd path.
func BenchmarkFullStackLogin(b *testing.B) {
	h := newHarness(b, "")
	h.addUser(b, "u", "pw")
	code := h.pairSoft(b, "u")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.sim.Advance(30 * time.Second) // fresh code each round (replay protection)
		h.recordPubkey("u", external)
		c := &conv{answers: []any{func() string { return code() }}}
		if err := h.login(b, "u", external, c); err != nil {
			b.Fatal(err)
		}
	}
}

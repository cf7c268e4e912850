package core

import (
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"openmfa/internal/clock"
	"openmfa/internal/idm"
	"openmfa/internal/leakcheck"
	"openmfa/internal/otp"
	"openmfa/internal/otpd"
	"openmfa/internal/pam"
	"openmfa/internal/sshd"
)

var t0 = time.Date(2016, 10, 4, 8, 0, 0, 0, time.UTC)

func newInfra(t testing.TB, opts Options) *Infrastructure {
	t.Helper()
	if opts.Clock == nil {
		opts.Clock = clock.NewSim(t0)
	}
	inf, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { inf.Close() })
	return inf
}

func TestEndToEndSSHLoginThroughFullInfrastructure(t *testing.T) {
	inf := newInfra(t, Options{Banner: "welcome to the hpc system"})
	sim := inf.Clock.(*clock.Sim)
	if _, err := inf.CreateUser("alice", "alice@x", "pw", idm.ClassUser); err != nil {
		t.Fatal(err)
	}
	enr, err := inf.PairSoft("alice")
	if err != nil {
		t.Fatal(err)
	}
	code := func() string {
		c, _ := otp.TOTP(enr.Secret, sim.Now(), inf.OTP.OTPOptions())
		return c
	}
	r := &sshd.FuncResponder{}
	r.Fn = func(echo bool, prompt string) (string, error) {
		if strings.Contains(prompt, "Password") {
			return "pw", nil
		}
		return code(), nil
	}
	c, err := sshd.Dial(inf.SSHAddr(), DialOpts("alice", r))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Banner != "welcome to the hpc system" {
		t.Fatalf("banner = %q", c.Banner)
	}
	out, err := c.Exec("whoami")
	if err != nil || out != "alice" {
		t.Fatalf("exec = %q, %v", out, err)
	}
}

// DialOpts is a tiny test helper.
func DialOpts(user string, r sshd.Responder) sshd.DialOptions {
	return sshd.DialOptions{User: user, TTY: true, Responder: r}
}

func TestSMSLoginThroughVirtualCarrier(t *testing.T) {
	inf := newInfra(t, Options{})
	sim := inf.Clock.(*clock.Sim)
	inf.CreateUser("storm", "s@x", "pw", idm.ClassStaff)
	_, phone, err := inf.PairSMS("storm", "5125551234")
	if err != nil {
		t.Fatal(err)
	}
	r := &sshd.FuncResponder{}
	r.Fn = func(echo bool, prompt string) (string, error) {
		if strings.Contains(prompt, "Password") {
			return "pw", nil
		}
		// Wait for the text message to arrive; the carrier sleeps on
		// the sim clock, so nudge it forward.
		ch := phone.Wait()
		for i := 0; i < 100; i++ {
			select {
			case m := <-ch:
				f := strings.Fields(m.Body)
				return f[len(f)-1], nil
			default:
				sim.Advance(time.Second)
				time.Sleep(time.Millisecond)
			}
		}
		return "", errors.New("sms never arrived")
	}
	c, err := sshd.Dial(inf.SSHAddr(), DialOpts("storm", r))
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if got := len(phone.Inbox()); got != 1 {
		t.Fatalf("inbox = %d", got)
	}
	cost := inf.SMS.Cost()
	if cost.Messages != 1 {
		t.Fatalf("billed messages = %d", cost.Messages)
	}
}

func TestModeSwitchDuringProduction(t *testing.T) {
	inf := newInfra(t, Options{Mode: pam.ModePaired})
	inf.CreateUser("u", "u@x", "pw", idm.ClassUser)
	pwOnly := &sshd.FuncResponder{}
	pwOnly.Fn = func(echo bool, prompt string) (string, error) { return "pw", nil }
	// Paired mode: unpaired user enters with just the password.
	c, err := sshd.Dial(inf.SSHAddr(), DialOpts("u", pwOnly))
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	// Flip to full enforcement live.
	inf.Mode.SetMode(pam.ModeFull)
	if _, err := sshd.Dial(inf.SSHAddr(), DialOpts("u", pwOnly)); !errors.Is(err, sshd.ErrDenied) {
		t.Fatalf("full mode err = %v", err)
	}
}

// TestPairingLookupKeepsAccountsApart: the accounts "a,b" and "a, b" are
// distinct in idm and in otpd, so each reads its own pairing type.
// Unpairing one must never waive the other's second factor in paired
// mode.
func TestPairingLookupKeepsAccountsApart(t *testing.T) {
	inf := newInfra(t, Options{Mode: pam.ModePaired})
	for _, u := range []string{"a,b", "a, b"} {
		if _, err := inf.CreateUser(u, "", "pw", idm.ClassUser); err != nil {
			t.Fatal(err)
		}
	}
	for _, u := range []string{"a,b", "a, b"} {
		if _, err := inf.PairSoft(u); err != nil {
			t.Fatal(err)
		}
	}
	var lookup pam.PairingLookup = inf.OTP
	check := func(when string, want map[string]string) {
		t.Helper()
		for u, w := range want {
			if p, err := lookup.Pairing(u); err != nil || p != w {
				t.Errorf("%s: Pairing(%q) = %q, %v; want %q", when, u, p, err, w)
			}
		}
	}
	check("after pairing both", map[string]string{"a,b": "soft", "a, b": "soft"})
	if err := inf.Unpair("a, b"); err != nil {
		t.Fatal(err)
	}
	check("after unpairing a, b", map[string]string{"a,b": "soft", "a, b": "none"})
}

func TestHardTokenLifecycleViaFacade(t *testing.T) {
	inf := newInfra(t, Options{})
	sim := inf.Clock.(*clock.Sim)
	inf.CreateUser("hanlon", "h@x", "pw", idm.ClassStaff)
	secret := []byte("fob-secret-1234-----")
	if err := inf.OTP.ImportHardToken("C200-7777", secret); err != nil {
		t.Fatal(err)
	}
	if _, err := inf.PairHard("hanlon", "C200-7777"); err != nil {
		t.Fatal(err)
	}
	r := &sshd.FuncResponder{}
	r.Fn = func(echo bool, prompt string) (string, error) {
		if strings.Contains(prompt, "Password") {
			return "pw", nil
		}
		c, _ := otp.TOTP(secret, sim.Now(), inf.OTP.OTPOptions())
		return c, nil
	}
	c, err := sshd.Dial(inf.SSHAddr(), DialOpts("hanlon", r))
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	// Unpair and confirm the account drops back to single factor checks
	// failing (full mode denies unpaired).
	if err := inf.Unpair("hanlon"); err != nil {
		t.Fatal(err)
	}
	if p, _ := inf.OTP.Pairing("hanlon"); p != "none" {
		t.Fatal("pairing not cleared")
	}
}

func TestTrainingAccountStaticCode(t *testing.T) {
	inf := newInfra(t, Options{})
	inf.CreateUser("train01", "t@x", "pw", idm.ClassTraining)
	if err := inf.PairTraining("train01", "424242"); err != nil {
		t.Fatal(err)
	}
	r := &sshd.FuncResponder{}
	r.Fn = func(echo bool, prompt string) (string, error) {
		if strings.Contains(prompt, "Password") {
			return "pw", nil
		}
		return "424242", nil
	}
	// The whole workshop logs in with the same static code, repeatedly.
	for i := 0; i < 3; i++ {
		c, err := sshd.Dial(inf.SSHAddr(), DialOpts("train01", r))
		if err != nil {
			t.Fatalf("workshop login %d failed: %v", i, err)
		}
		c.Close()
	}
}

func TestExemptionRulesAtConstruction(t *testing.T) {
	inf := newInfra(t, Options{ExemptionRules: "permit : gw : ALL : ALL"})
	inf.CreateUser("gw", "g@x", "pw", idm.ClassGateway)
	pwOnly := &sshd.FuncResponder{}
	pwOnly.Fn = func(echo bool, prompt string) (string, error) { return "pw", nil }
	c, err := sshd.Dial(inf.SSHAddr(), DialOpts("gw", pwOnly))
	if err != nil {
		t.Fatalf("exempt gateway denied: %v", err)
	}
	c.Close()
}

func TestPortalReachableWithinInfrastructure(t *testing.T) {
	inf := newInfra(t, Options{})
	if !strings.HasPrefix(inf.PortalURL(), "http://127.0.0.1") {
		t.Fatalf("portal url = %q", inf.PortalURL())
	}
	if !strings.HasPrefix(inf.AdminURL(), "http://127.0.0.1") {
		t.Fatalf("admin url = %q", inf.AdminURL())
	}
	// The admin client the facade built must round-trip digest auth
	// against the admin API.
	inf.CreateUser("x", "x@x", "pw", idm.ClassUser)
	enr, err := inf.Admin.Init("x", "soft", "", "")
	if err != nil {
		t.Fatalf("admin init via REST failed: %v", err)
	}
	if enr.Secret == "" || enr.URI == "" {
		t.Fatalf("enrollment = %+v", enr)
	}
	// Once a code has confirmed the token, a duplicate init surfaces the
	// HTTP conflict as an APIError.
	secret, err := enr.SecretBytes()
	if err != nil {
		t.Fatal(err)
	}
	code, _ := otp.TOTP(secret, inf.Clock.Now(), inf.OTP.OTPOptions())
	if res, err := inf.OTP.Check("x", code); err != nil || !res.OK {
		t.Fatalf("confirming check: %+v, %v", res, err)
	}
	var apiErr *otpd.APIError
	if _, err := inf.Admin.Init("x", "soft", "", ""); !errors.As(err, &apiErr) || apiErr.Status != http.StatusConflict {
		t.Fatalf("duplicate init: %v, want a 409 APIError", err)
	}
}

func TestRadiusFailoverInsideFacade(t *testing.T) {
	inf := newInfra(t, Options{RadiusServers: 2})
	sim := inf.Clock.(*clock.Sim)
	inf.CreateUser("u", "u@x", "pw", idm.ClassUser)
	enr, _ := inf.PairSoft("u")
	// Kill one RADIUS server; logins must still succeed via the pool.
	inf.radiusServers[0].Close()
	r := &sshd.FuncResponder{}
	r.Fn = func(echo bool, prompt string) (string, error) {
		if strings.Contains(prompt, "Password") {
			return "pw", nil
		}
		c, _ := otp.TOTP(enr.Secret, sim.Now(), inf.OTP.OTPOptions())
		return c, nil
	}
	c, err := sshd.Dial(inf.SSHAddr(), DialOpts("u", r))
	if err != nil {
		t.Fatalf("login with one dead RADIUS server failed: %v", err)
	}
	c.Close()
}

func TestStringSummary(t *testing.T) {
	inf := newInfra(t, Options{})
	s := inf.String()
	if !strings.Contains(s, "sshd=") || !strings.Contains(s, "radius=") {
		t.Fatalf("String() = %q", s)
	}
}

// A New that fails after the stores are open must release them and the
// replication listener: a malformed exemption rule is operator input, and
// the operator's next step is to fix it and start again on the same
// DataDir.
func TestNewFailureReleasesStoresAndListeners(t *testing.T) {
	leakcheck.Check(t)
	opts := Options{
		DataDir:        t.TempDir(),
		ReplListen:     "127.0.0.1:0",
		ExemptionRules: "this is not a rule",
	}
	if inf, err := New(opts); err == nil {
		inf.Close()
		t.Fatal("malformed exemption rule accepted")
	}
	opts.ExemptionRules = "permit : gateway1 : ALL : ALL"
	inf, err := New(opts)
	if err != nil {
		t.Fatalf("second New on the same DataDir: %v", err)
	}
	if err := inf.Close(); err != nil {
		t.Fatal(err)
	}
}

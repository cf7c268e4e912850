package core

import (
	"strings"
	"testing"

	"openmfa/internal/clock"
	"openmfa/internal/idm"
	"openmfa/internal/otp"
	"openmfa/internal/racecheck"
	"openmfa/internal/sshd"
)

// maxLoginAllocs is the whole-login allocation ceiling: today's measured
// count plus 2 %. A change that lowers the count lowers this ceiling with
// it, so the saving cannot be spent again unnoticed.
const maxLoginAllocs = 277 // 272 measured × 1.02

// TestLoginAllocsRatchet counts every allocation one whole login makes,
// client and servers together: password + soft TOTP over sshd.Dial on
// in-memory stores, the benchmark's totp_mem login, with the clock moved
// one TOTP period per login so every code is fresh.
func TestLoginAllocsRatchet(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("alloc-count assertions are meaningless under -race")
	}
	inf := newInfra(t, Options{})
	sim := inf.Clock.(*clock.Sim)
	if _, err := inf.CreateUser("alice", "alice@x", "pw", idm.ClassUser); err != nil {
		t.Fatal(err)
	}
	enr, err := inf.PairSoft("alice")
	if err != nil {
		t.Fatal(err)
	}
	opts := inf.OTP.OTPOptions()
	r := &sshd.FuncResponder{}
	r.Fn = func(echo bool, prompt string) (string, error) {
		if strings.HasPrefix(prompt, "Password") {
			return "pw", nil
		}
		return otp.TOTP(enr.Secret, sim.Now(), opts)
	}
	login := func() {
		sim.Advance(opts.Period)
		c, err := sshd.Dial(inf.SSHAddr(), DialOpts("alice", r))
		if err != nil {
			t.Fatalf("login: %v", err)
		}
		if err := c.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}
	login() // fill the password verify and secret caches
	got := testing.AllocsPerRun(200, login)
	t.Logf("%.0f allocs/login (ceiling %d)", got, maxLoginAllocs)
	if got > maxLoginAllocs {
		t.Errorf("a login allocates %.0f times, ceiling %d", got, maxLoginAllocs)
	}
}

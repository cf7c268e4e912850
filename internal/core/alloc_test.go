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
// it, so the saving cannot be spent again unnoticed. The binary sshwire
// frame codec took the count from 272 to 205; reused RADIUS client sockets,
// a Message-Authenticator without a keyed crypto/hmac state and log lines
// that box nothing without a Logger took it to 153; an otpd check that
// neither keys a fresh HMAC nor decodes a record it wrote itself, and a
// pairing lookup that reads one directory attribute, took it to 112; a
// directory keyed by uid rather than by a built and normalised DN took it
// to 108; RADIUS packets built and read in one buffer each, in pooled
// scratch, took it to 81; reading the idm account and the otpd token
// record as the store holds them decoded, once per write, and a verify
// cache key hashed on the stack took it to 68.
const maxLoginAllocs = 69 // 68 measured × 1.02

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
	login() // fill the password verify cache and the decoded records
	got := testing.AllocsPerRun(200, login)
	t.Logf("%.0f allocs/login (ceiling %d)", got, maxLoginAllocs)
	if got > maxLoginAllocs {
		t.Errorf("a login allocates %.0f times, ceiling %d", got, maxLoginAllocs)
	}
}

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
// cache key hashed on the stack took it to 68; a trace ID handed to otpd
// as a string rather than in a context, two typed PAM context fields in
// place of a per-attempt map, and a peer address read off the
// *net.TCPAddr rather than formatted and parsed back took it to 59; one
// sshd state per connection, the peer address formatted once, a trace ID
// built in one string, a RADIUS reply read in place and from a socket
// read that makes no address, a record save whose op stays on the stack,
// a store that keeps the bytes it is handed, and a login address the test
// no longer formats per login took it to 44; sshd and RADIUS workers that
// live across logins, each reusing its connection state or datagram
// scratch, in place of a goroutine per connection and per datagram took it
// to 41. TestLoginAllocLedger charges what is left to its layers.
const maxLoginAllocs = 41 // 41 measured × 1.02

// maxExemptLoginAllocs is the same ceiling for an exempt gateway's
// password-only login, the short path that ends the stack at
// pam_mfa_exempt (30 % of the benchmark's mix_paper logins).
const maxExemptLoginAllocs = 30 // 30 measured × 1.02

// TestLoginAllocsRatchet counts every allocation one whole login makes,
// client and servers together, on in-memory stores: password + soft TOTP
// over sshd.Dial, the benchmark's totp_mem login, with the clock moved one
// TOTP period per login so every code is fresh; and an exempt gateway's
// password-only login.
func TestLoginAllocsRatchet(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("alloc-count assertions are meaningless under -race")
	}
	inf := newInfra(t, Options{ExemptionRules: "permit : gw : ALL : ALL"})
	sim := inf.Clock.(*clock.Sim)
	if _, err := inf.CreateUser("alice", "alice@x", "pw", idm.ClassUser); err != nil {
		t.Fatal(err)
	}
	if _, err := inf.CreateUser("gw", "gw@x", "pw", idm.ClassGateway); err != nil {
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
	for _, row := range []struct {
		name    string
		user    string
		ceiling int
	}{
		{"totp", "alice", maxLoginAllocs},
		{"exempt_gateway", "gw", maxExemptLoginAllocs},
	} {
		t.Run(row.name, func(t *testing.T) {
			login := func() {
				sim.Advance(opts.Period)
				c, err := sshd.Dial(inf.SSHAddr(), DialOpts(row.user, r))
				if err != nil {
					t.Fatalf("login: %v", err)
				}
				if err := c.Close(); err != nil {
					t.Fatalf("close: %v", err)
				}
			}
			login() // fill the password verify cache and the decoded records
			got := testing.AllocsPerRun(200, login)
			t.Logf("%.0f allocs/login (ceiling %d)", got, row.ceiling)
			if got > float64(row.ceiling) {
				t.Errorf("a login allocates %.0f times, ceiling %d", got, row.ceiling)
			}
		})
	}
}

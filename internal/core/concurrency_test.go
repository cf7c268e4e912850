package core

import (
	"fmt"
	"sync"
	"testing"

	"openmfa/internal/clock"
	"openmfa/internal/idm"
	"openmfa/internal/otp"
	"openmfa/internal/radius"
)

// TestConcurrentRadiusValidationStorm drives a login storm through the
// assembled infrastructure: many users validating at once through the
// RADIUS farm. Every fresh code must be accepted (distinct users never
// contend on shared validation state), and a replayed code rejected.
func TestConcurrentRadiusValidationStorm(t *testing.T) {
	inf := newInfra(t, Options{LockoutThreshold: 1000})
	sim := inf.Clock.(*clock.Sim)

	const users = 12
	secrets := make([][]byte, users)
	for i := 0; i < users; i++ {
		name := fmt.Sprintf("storm%02d", i)
		if _, err := inf.CreateUser(name, name+"@hpc.example", "pw", idm.ClassUser); err != nil {
			t.Fatal(err)
		}
		enr, err := inf.PairSoft(name)
		if err != nil {
			t.Fatal(err)
		}
		secrets[i] = enr.Secret
	}

	exchange := func(user, code string) (*radius.Packet, error) {
		return inf.Pool.Exchange(func(req *radius.Packet) {
			req.AddString(radius.AttrUserName, user)
			hidden, err := radius.HidePassword(code, inf.Pool.Secret(), req.Authenticator)
			if err != nil {
				t.Error(err)
				return
			}
			req.Add(radius.AttrUserPassword, hidden)
		})
	}

	var wg sync.WaitGroup
	codes := make([]string, users)
	for i := 0; i < users; i++ {
		code, err := otp.TOTP(secrets[i], sim.Now(), inf.OTP.OTPOptions())
		if err != nil {
			t.Fatal(err)
		}
		codes[i] = code
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := exchange(fmt.Sprintf("storm%02d", i), codes[i])
			if err != nil {
				t.Errorf("storm%02d: %v", i, err)
				return
			}
			if resp.Code != radius.AccessAccept {
				t.Errorf("storm%02d: code = %v, want Access-Accept", i, resp.Code)
			}
		}(i)
	}
	wg.Wait()

	// Replays of the now-consumed codes must all be rejected.
	for i := 0; i < users; i++ {
		resp, err := exchange(fmt.Sprintf("storm%02d", i), codes[i])
		if err != nil {
			t.Fatal(err)
		}
		if resp.Code != radius.AccessReject {
			t.Errorf("storm%02d replay: code = %v, want Access-Reject", i, resp.Code)
		}
	}
}

// TestOptionsPlumbing checks the new knobs reach their components.
func TestOptionsPlumbing(t *testing.T) {
	o := otp.DefaultTOTPOptions()
	o.Digits = otp.EightDigits
	inf := newInfra(t, Options{
		LockoutThreshold: 3,
		OTP:              o,
	})
	if got := inf.OTP.OTPOptions().Digits; got != otp.EightDigits {
		t.Fatalf("Digits = %d, want 8", got)
	}
	if _, err := inf.CreateUser("trip", "t@x", "pw", idm.ClassUser); err != nil {
		t.Fatal(err)
	}
	if _, err := inf.PairSoft("trip"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		inf.OTP.Check("trip", "00000000")
	}
	ti, err := inf.OTP.Token("trip")
	if err != nil {
		t.Fatal(err)
	}
	if ti.Active {
		t.Fatal("token still active after LockoutThreshold=3 failures")
	}
}

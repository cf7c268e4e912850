package otp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"openmfa/internal/racecheck"
)

// skipUnderRace: AllocsPerRun counts race-detector bookkeeping as real
// allocations, so the zero-alloc gates only hold in race-free builds.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if racecheck.Enabled {
		t.Skip("alloc-count assertions are meaningless under -race")
	}
}

// Documented allocation floors for the OTP hot paths. The Generator keys
// its HMAC pads on the caller's stack, so HOTP pays only for the returned
// code string, and ValidateHOTP/ValidateTOTP allocate nothing for the
// whole window scan, hit or miss. make verify enforces these so the
// zero-alloc work cannot silently regress.
const (
	maxHOTPAllocs     = 1 // the returned code string
	maxValidateAllocs = 0 // window-independent
)

func TestHOTPAllocsFloor(t *testing.T) {
	skipUnderRace(t)
	secret := []byte("12345678901234567890")
	got := testing.AllocsPerRun(500, func() {
		if _, err := HOTP(secret, 7, SixDigits, SHA1); err != nil {
			t.Fatal(err)
		}
	})
	if got > maxHOTPAllocs {
		t.Errorf("HOTP allocs/op = %.1f, floor %d", got, maxHOTPAllocs)
	}
}

// TestValidateHOTPAllocsWindowIndependent is the heart of the zero-alloc
// claim: scanning a 20-counter window must allocate exactly as much as
// scanning one counter, because the HMAC state and code buffers are reused
// across candidates.
func TestValidateHOTPAllocsWindowIndependent(t *testing.T) {
	skipUnderRace(t)
	secret := []byte("12345678901234567890")
	miss := "000000" // worst case: every candidate is computed and compared
	one := testing.AllocsPerRun(500, func() {
		ValidateHOTP(secret, miss, 7, 0, SixDigits, SHA1)
	})
	wide := testing.AllocsPerRun(500, func() {
		ValidateHOTP(secret, miss, 7, 20, SixDigits, SHA1)
	})
	if wide != one {
		t.Errorf("allocs/op grew with window: window=0 %.1f, window=20 %.1f", one, wide)
	}
	if wide > maxValidateAllocs {
		t.Errorf("ValidateHOTP allocs/op = %.1f, floor %d", wide, maxValidateAllocs)
	}
}

func TestValidateTOTPAllocsWindowIndependent(t *testing.T) {
	skipUnderRace(t)
	secret := []byte("12345678901234567890")
	narrow := DefaultTOTPOptions()
	narrow.Skew = 0
	wideOpts := DefaultTOTPOptions()
	wideOpts.Skew = 900 * time.Second // ±30 steps
	at := time.Unix(1475000000, 0)
	one := testing.AllocsPerRun(500, func() {
		ValidateTOTP(secret, "000000", at, narrow)
	})
	wide := testing.AllocsPerRun(500, func() {
		ValidateTOTP(secret, "000000", at, wideOpts)
	})
	if wide != one {
		t.Errorf("allocs/op grew with skew: skew=0 %.1f, skew=900s %.1f", one, wide)
	}
	if wide > maxValidateAllocs {
		t.Errorf("ValidateTOTP allocs/op = %.1f, floor %d", wide, maxValidateAllocs)
	}
}

func TestGeneratorAppendCodeZeroAlloc(t *testing.T) {
	skipUnderRace(t)
	for _, alg := range []Algorithm{SHA1, SHA256, SHA512} {
		g, err := NewGenerator([]byte("12345678901234567890"), SixDigits, alg)
		if err != nil {
			t.Fatal(err)
		}
		var buf [9]byte
		got := testing.AllocsPerRun(500, func() {
			g.AppendCode(buf[:0], 42)
		})
		if got != 0 {
			t.Errorf("%v: Generator.AppendCode allocs/op = %.1f, want 0", alg, got)
		}
	}
}

// TestGeneratorMatchesHOTP pins the reusable generator to the one-shot
// reference across counters, digit widths, and algorithms — including
// repeated use of one generator (Reset correctness).
func TestGeneratorMatchesHOTP(t *testing.T) {
	secret := []byte("12345678901234567890")
	for _, alg := range []Algorithm{SHA1, SHA256, SHA512} {
		for d := Digits(6); d <= 9; d++ {
			g, err := NewGenerator(secret, d, alg)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []uint64{0, 1, 59, 1111111109, math.MaxUint64 - 1, math.MaxUint64} {
				want, err := HOTP(secret, c, d, alg)
				if err != nil {
					t.Fatal(err)
				}
				if got := g.Code(c); got != want {
					t.Errorf("alg=%v d=%d c=%d: generator %q != HOTP %q", alg, d, c, got, want)
				}
			}
		}
	}
	if _, err := NewGenerator(secret, 3, SHA1); err == nil {
		t.Error("NewGenerator accepted 3 digits")
	}
}

// TestValidateHOTPOverflowClamp is the regression test for the silent
// uint64 wrap: with counter near MaxUint64 and a window crossing it, the
// scan used to wrap to counter 0 and validate codes for counters 0..k.
func TestValidateHOTPOverflowClamp(t *testing.T) {
	secret := []byte("12345678901234567890")
	const counter = math.MaxUint64 - 2
	const window = 10 // counter+window wraps to 7

	// Codes for the low counters the wrapped scan used to reach must be
	// rejected now.
	for c := uint64(0); c <= 7; c++ {
		code, err := HOTP(secret, c, SixDigits, SHA1)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := ValidateHOTP(secret, code, counter, window, SixDigits, SHA1); ok {
			t.Errorf("code for wrapped counter %d validated as %d", c, got)
		}
	}
	// Counters inside the clamped range [counter, MaxUint64] still work.
	for _, c := range []uint64{counter, math.MaxUint64 - 1, math.MaxUint64} {
		code, err := HOTP(secret, c, SixDigits, SHA1)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := ValidateHOTP(secret, code, counter, window, SixDigits, SHA1)
		if !ok || got != c {
			t.Errorf("counter %d: got (%d, %v), want (%d, true)", c, got, ok, c)
		}
	}
}

// TestDigitsFormatMatchesSprintf is the property test tying the zero-alloc
// digit encoder to the fmt reference for every supported width.
func TestDigitsFormatMatchesSprintf(t *testing.T) {
	for d := Digits(6); d <= 9; d++ {
		f := func(v uint32) bool {
			v %= pow10[d]
			return d.Format(v) == fmt.Sprintf("%0*d", int(d), v)
		}
		cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(int64(d)))}
		if err := quick.Check(f, cfg); err != nil {
			t.Errorf("digits=%d: %v", d, err)
		}
	}
	// Out-of-contract values (v >= 10^d) keep the historical Sprintf
	// behaviour of printing every digit rather than truncating.
	if got, want := SixDigits.Format(1234567), "1234567"; got != want {
		t.Errorf("overflow value: got %q, want %q", got, want)
	}
}

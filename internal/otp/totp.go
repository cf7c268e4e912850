package otp

import (
	"errors"
	"math"
	"time"
)

// DefaultPeriod is the TOTP time step used throughout the deployment: "a
// code is generated every 30 seconds" (§3.3).
const DefaultPeriod = 30 * time.Second

// DefaultDriftWindow is the paper's tolerance for device clock skew: "the
// smartphone keep a time that does not drift more than a time delta of 300
// seconds from the LinOTP server's time" (§3.3). With 30-second steps that
// is ±10 steps.
const DefaultDriftWindow = 300 * time.Second

// TOTPOptions configures code generation and validation. The zero value is
// not valid; use DefaultTOTPOptions.
type TOTPOptions struct {
	Period    time.Duration // time step; must be positive
	Digits    Digits
	Algorithm Algorithm
	// Skew is the maximum absolute clock drift tolerated during
	// validation, expressed as a duration. It is converted to a step
	// count by rounding down (300s / 30s = ±10 steps).
	Skew time.Duration
}

// DefaultTOTPOptions mirrors the paper's deployment: 6 digits, 30-second
// period, SHA-1, ±300 seconds drift tolerance.
func DefaultTOTPOptions() TOTPOptions {
	return TOTPOptions{
		Period:    DefaultPeriod,
		Digits:    SixDigits,
		Algorithm: SHA1,
		Skew:      DefaultDriftWindow,
	}
}

// ErrInvalidPeriod is returned when the period is shorter than one second.
// Sub-second periods are rejected, not just non-positive ones: the counter
// arithmetic works in whole seconds, so a 500 ms period would truncate to
// a zero divisor.
var ErrInvalidPeriod = errors.New("otp: period must be at least one second")

// Counter returns the TOTP moving factor for time t: floor(unix(t)/period).
// Times before the Unix epoch and periods under one second are rejected by
// returning (0, false).
func (o TOTPOptions) Counter(t time.Time) (uint64, bool) {
	if o.Period < time.Second {
		return 0, false
	}
	u := t.Unix()
	if u < 0 {
		return 0, false
	}
	return uint64(u) / uint64(o.Period/time.Second), true
}

// skewSteps converts the Skew duration into a step count.
func (o TOTPOptions) skewSteps() uint64 {
	if o.Skew <= 0 || o.Period < time.Second {
		return 0
	}
	return uint64(o.Skew / o.Period)
}

// TOTP computes the RFC 6238 code for the secret at time t.
func TOTP(secret []byte, t time.Time, o TOTPOptions) (string, error) {
	if o.Period < time.Second {
		return "", ErrInvalidPeriod
	}
	c, ok := o.Counter(t)
	if !ok {
		return "", errors.New("otp: time before epoch")
	}
	return HOTP(secret, c, o.Digits, o.Algorithm)
}

// ValidateTOTP reports whether code is valid for the secret at server time
// t, allowing the configured skew in both directions. It returns the
// matching counter so callers can implement replay protection ("the
// provided token code is nullified", §3.2): a code must never be accepted
// twice, so callers record the returned counter and reject any counter
// <= the high-water mark.
func ValidateTOTP(secret []byte, code string, t time.Time, o TOTPOptions) (uint64, bool) {
	center, ok := o.Counter(t)
	if !ok {
		return 0, false
	}
	var g Generator
	if err := g.init(secret, o.Digits, o.Algorithm); err != nil {
		return 0, false
	}
	defer g.release()
	steps := o.skewSteps()

	lo := uint64(0)
	if center > steps {
		lo = center - steps
	}
	hi := center + steps
	if hi < center {
		hi = math.MaxUint64 // clamp instead of wrapping to counter zero
	}
	var buf [9]byte
	match := func(c uint64) bool {
		return codeEqual(g.AppendCode(buf[:0], c), code)
	}
	// Check the centre first (the common case), then spiral outwards so
	// that small drifts validate fastest. One Generator serves the whole
	// scan: the pad blocks are hashed once, not per candidate.
	if match(center) {
		return center, true
	}
	for d := uint64(1); d <= steps; d++ {
		if hi-center >= d && match(center+d) {
			return center + d, true
		}
		if center >= d && center-d >= lo && match(center-d) {
			return center - d, true
		}
	}
	return 0, false
}

// Resync searches a wide window around server time t for two consecutive
// codes, the classic OATH token resynchronisation procedure exposed by the
// LinOTP admin UI ("re-synchronize tokens", §3.1). It returns the counter
// of the second code on success. searchSteps bounds the scan on each side.
func Resync(secret []byte, code1, code2 string, t time.Time, searchSteps uint64, o TOTPOptions) (uint64, bool) {
	center, ok := o.Counter(t)
	if !ok {
		return 0, false
	}
	var g Generator
	if err := g.init(secret, o.Digits, o.Algorithm); err != nil {
		return 0, false
	}
	defer g.release()
	lo := uint64(0)
	if center > searchSteps {
		lo = center - searchSteps
	}
	hi := center + searchSteps
	if hi < center || hi == math.MaxUint64 {
		hi = math.MaxUint64 - 1 // the scan probes c+1, which must not wrap
	}
	var buf [9]byte
	match := func(c uint64, code string) bool {
		return codeEqual(g.AppendCode(buf[:0], c), code)
	}
	for c := lo; c <= hi; c++ {
		if match(c, code1) && match(c+1, code2) {
			return c + 1, true
		}
	}
	return 0, false
}

package otp

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// RFC 4226 Appendix D test vectors (secret "12345678901234567890").
func TestHOTPRFC4226Vectors(t *testing.T) {
	secret := []byte("12345678901234567890")
	want := []string{
		"755224", "287082", "359152", "969429", "338314",
		"254676", "287922", "162583", "399871", "520489",
	}
	for c, w := range want {
		got, err := HOTP(secret, uint64(c), SixDigits, SHA1)
		if err != nil {
			t.Fatal(err)
		}
		if got != w {
			t.Errorf("HOTP(counter=%d) = %s, want %s", c, got, w)
		}
	}
}

// RFC 6238 Appendix B test vectors (8 digits).
func TestTOTPRFC6238Vectors(t *testing.T) {
	cases := []struct {
		unix int64
		alg  Algorithm
		want string
	}{
		{59, SHA1, "94287082"},
		{59, SHA256, "46119246"},
		{59, SHA512, "90693936"},
		{1111111109, SHA1, "07081804"},
		{1111111111, SHA1, "14050471"},
		{1234567890, SHA1, "89005924"},
		{2000000000, SHA1, "69279037"},
		{20000000000, SHA1, "65353130"},
		{1111111109, SHA256, "68084774"},
		{1111111109, SHA512, "25091201"},
	}
	secrets := map[Algorithm][]byte{
		SHA1:   []byte("12345678901234567890"),
		SHA256: []byte("12345678901234567890123456789012"),
		SHA512: []byte("1234567890123456789012345678901234567890123456789012345678901234"),
	}
	for _, c := range cases {
		o := TOTPOptions{Period: 30 * time.Second, Digits: EightDigits, Algorithm: c.alg}
		got, err := TOTP(secrets[c.alg], time.Unix(c.unix, 0).UTC(), o)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("TOTP(unix=%d, %v) = %s, want %s", c.unix, c.alg, got, c.want)
		}
	}
}

func TestHOTPInvalidDigits(t *testing.T) {
	for _, d := range []Digits{0, 1, 5, 10, -3} {
		if _, err := HOTP([]byte("k"), 0, d, SHA1); err != ErrInvalidDigits {
			t.Errorf("digits=%d: err = %v, want ErrInvalidDigits", d, err)
		}
	}
}

func TestValidateHOTPWindow(t *testing.T) {
	secret := []byte("12345678901234567890")
	// Code for counter 5 should validate from counter 3 with window 2.
	code, _ := HOTP(secret, 5, SixDigits, SHA1)
	c, ok := ValidateHOTP(secret, code, 3, 2, SixDigits, SHA1)
	if !ok || c != 5 {
		t.Fatalf("ValidateHOTP = (%d,%v), want (5,true)", c, ok)
	}
	// Outside the window it must fail.
	if _, ok := ValidateHOTP(secret, code, 3, 1, SixDigits, SHA1); ok {
		t.Fatal("code outside window accepted")
	}
	// Negative window behaves as 0.
	code3, _ := HOTP(secret, 3, SixDigits, SHA1)
	if c, ok := ValidateHOTP(secret, code3, 3, -5, SixDigits, SHA1); !ok || c != 3 {
		t.Fatal("negative window broke exact match")
	}
}

// The paper's drift rule: devices within ±300 s validate; beyond that they
// do not (§3.3). This is the DESIGN.md §3.3-drift experiment.
func TestDriftWindow(t *testing.T) {
	secret := []byte("12345678901234567890")
	o := DefaultTOTPOptions()
	server := time.Date(2016, 10, 4, 12, 0, 0, 0, time.UTC)
	for _, drift := range []time.Duration{
		0, 29 * time.Second, -29 * time.Second,
		299 * time.Second, -299 * time.Second, 300 * time.Second, -300 * time.Second,
	} {
		device := server.Add(drift)
		code, err := TOTP(secret, device, o)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := ValidateTOTP(secret, code, server, o); !ok {
			t.Errorf("drift %v: valid code rejected", drift)
		}
	}
	for _, drift := range []time.Duration{
		331 * time.Second, -331 * time.Second, 10 * time.Minute, -10 * time.Minute,
	} {
		device := server.Add(drift)
		code, _ := TOTP(secret, device, o)
		if _, ok := ValidateTOTP(secret, code, server, o); ok {
			t.Errorf("drift %v: out-of-window code accepted", drift)
		}
	}
}

func TestValidateTOTPReturnsCounterForReplayProtection(t *testing.T) {
	secret := []byte("12345678901234567890")
	o := DefaultTOTPOptions()
	now := time.Date(2016, 9, 27, 9, 0, 0, 0, time.UTC)
	code, _ := TOTP(secret, now, o)
	c1, ok := ValidateTOTP(secret, code, now, o)
	if !ok {
		t.Fatal("valid code rejected")
	}
	want, _ := o.Counter(now)
	if c1 != want {
		t.Fatalf("counter = %d, want %d", c1, want)
	}
}

func TestValidateTOTPWrongCode(t *testing.T) {
	secret := []byte("12345678901234567890")
	o := DefaultTOTPOptions()
	now := time.Unix(1475000000, 0)
	if _, ok := ValidateTOTP(secret, "000000", now, o); ok {
		// 000000 could theoretically be the right code; regenerate to be sure.
		real, _ := TOTP(secret, now, o)
		if real != "000000" {
			t.Fatal("wrong code accepted")
		}
	}
	if _, ok := ValidateTOTP(secret, "12345", now, o); ok {
		t.Fatal("short code accepted")
	}
	if _, ok := ValidateTOTP(secret, "", now, o); ok {
		t.Fatal("empty code accepted")
	}
}

func TestValidateTOTPNearEpoch(t *testing.T) {
	secret := []byte("12345678901234567890")
	o := DefaultTOTPOptions()
	// At t=0 the skew window would underflow counters; must not panic.
	code, err := TOTP(secret, time.Unix(0, 0), o)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ValidateTOTP(secret, code, time.Unix(0, 0), o); !ok {
		t.Fatal("epoch code rejected")
	}
	if _, err := TOTP(secret, time.Unix(-100, 0), o); err == nil {
		t.Fatal("pre-epoch time accepted")
	}
}

func TestTOTPInvalidPeriod(t *testing.T) {
	if _, err := TOTP([]byte("k"), time.Now(), TOTPOptions{Digits: SixDigits}); err != ErrInvalidPeriod {
		t.Fatalf("err = %v, want ErrInvalidPeriod", err)
	}
}

// TestTOTPSubSecondPeriod is a regression test: a positive sub-second
// period used to truncate to a zero divisor in Counter and panic with a
// divide-by-zero instead of being rejected.
func TestTOTPSubSecondPeriod(t *testing.T) {
	now := time.Unix(1475000000, 0)
	for _, period := range []time.Duration{time.Millisecond, 500 * time.Millisecond, time.Second - time.Nanosecond} {
		o := TOTPOptions{Period: period, Digits: SixDigits, Skew: 300 * time.Second}
		if _, ok := o.Counter(now); ok {
			t.Errorf("Counter accepted period %v", period)
		}
		if _, err := TOTP([]byte("k"), now, o); err != ErrInvalidPeriod {
			t.Errorf("TOTP(period=%v) err = %v, want ErrInvalidPeriod", period, err)
		}
		if c, ok := ValidateTOTP([]byte("k"), "000000", now, o); ok {
			t.Errorf("ValidateTOTP(period=%v) accepted, counter %d", period, c)
		}
	}
	// Whole-second periods still validate.
	o := TOTPOptions{Period: time.Second, Digits: SixDigits}
	code, err := TOTP([]byte("k"), now, o)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ValidateTOTP([]byte("k"), code, now, o); !ok {
		t.Fatal("1s-period code rejected")
	}
}

func TestResync(t *testing.T) {
	secret := []byte("12345678901234567890")
	o := DefaultTOTPOptions()
	server := time.Date(2016, 11, 1, 8, 0, 0, 0, time.UTC)
	// Device is 20 minutes fast: far outside the validation window but
	// recoverable via resync.
	device := server.Add(20 * time.Minute)
	c1, _ := TOTP(secret, device, o)
	c2, _ := TOTP(secret, device.Add(o.Period), o)
	counter, ok := Resync(secret, c1, c2, server, 100, o)
	if !ok {
		t.Fatal("resync failed for 20-minute drift")
	}
	wantC, _ := o.Counter(device.Add(o.Period))
	if counter != wantC {
		t.Fatalf("resync counter = %d, want %d", counter, wantC)
	}
	// Non-consecutive codes must not resync.
	c3, _ := TOTP(secret, device.Add(5*o.Period), o)
	if _, ok := Resync(secret, c1, c3, server, 100, o); ok {
		t.Fatal("non-consecutive codes resynced")
	}
}

func TestSecretRoundTrip(t *testing.T) {
	raw := []byte("12345678901234567890")
	enc := EncodeSecret(raw)
	if strings.Contains(enc, "=") {
		t.Fatal("encoded secret contains padding")
	}
	dec, err := DecodeSecret(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, raw) {
		t.Fatal("round trip mismatch")
	}
	// Tolerate user formatting: lowercase, spaces, dashes, padding.
	sloppy := strings.ToLower(enc[:4]) + " " + enc[4:8] + "-" + enc[8:] + "=="
	dec2, err := DecodeSecret(sloppy)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec2, raw) {
		t.Fatal("sloppy decode mismatch")
	}
	if _, err := DecodeSecret("not!base32"); err == nil {
		t.Fatal("invalid base32 accepted")
	}
}

func TestKeyURIRoundTrip(t *testing.T) {
	k := Key{
		Issuer:  "TACC",
		Account: "cproctor",
		Secret:  []byte("12345678901234567890"),
		Options: DefaultTOTPOptions(),
	}
	uri := k.URI()
	if !strings.HasPrefix(uri, "otpauth://totp/TACC:cproctor?") {
		t.Fatalf("unexpected uri %q", uri)
	}
	got, err := ParseURI(uri)
	if err != nil {
		t.Fatal(err)
	}
	if got.Issuer != "TACC" || got.Account != "cproctor" {
		t.Fatalf("label parsed as %q/%q", got.Issuer, got.Account)
	}
	if !bytes.Equal(got.Secret, k.Secret) {
		t.Fatal("secret mismatch")
	}
	if got.Options.Digits != SixDigits || got.Options.Period != DefaultPeriod || got.Options.Algorithm != SHA1 {
		t.Fatalf("options mismatch: %+v", got.Options)
	}
}

func TestKeyURINonDefaults(t *testing.T) {
	k := Key{
		Issuer:  "TACC",
		Account: "storm",
		Secret:  []byte("abcdefghij"),
		Options: TOTPOptions{Period: 60 * time.Second, Digits: EightDigits, Algorithm: SHA256},
	}
	got, err := ParseURI(k.URI())
	if err != nil {
		t.Fatal(err)
	}
	if got.Options.Period != 60*time.Second || got.Options.Digits != EightDigits || got.Options.Algorithm != SHA256 {
		t.Fatalf("options mismatch: %+v", got.Options)
	}
}

func TestKeyURIHOTP(t *testing.T) {
	k := Key{Account: "fob1", Secret: []byte("12345678901234567890"), IsCounter: true, Counter: 42,
		Options: DefaultTOTPOptions()}
	uri := k.URI()
	if !strings.HasPrefix(uri, "otpauth://hotp/") {
		t.Fatalf("uri %q", uri)
	}
	got, err := ParseURI(uri)
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsCounter || got.Counter != 42 {
		t.Fatalf("hotp fields: %+v", got)
	}
}

func TestParseURIErrors(t *testing.T) {
	bad := []string{
		"http://totp/x?secret=GEZDGNBV",
		"otpauth://bogus/x?secret=GEZDGNBV",
		"otpauth://totp/x",
		"otpauth://totp/x?secret=!!!",
		"otpauth://totp/x?secret=GEZDGNBV&digits=4",
		"otpauth://totp/x?secret=GEZDGNBV&period=0",
		"otpauth://totp/x?secret=GEZDGNBV&algorithm=MD5",
		"otpauth://hotp/x?secret=GEZDGNBV",
		"otpauth://hotp/x?secret=GEZDGNBV&counter=banana",
	}
	for _, s := range bad {
		if _, err := ParseURI(s); err == nil {
			t.Errorf("ParseURI(%q) succeeded, want error", s)
		}
	}
}

func TestParseAlgorithm(t *testing.T) {
	for s, want := range map[string]Algorithm{"": SHA1, "sha1": SHA1, "SHA256": SHA256, "Sha512": SHA512} {
		got, err := ParseAlgorithm(s)
		if err != nil || got != want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseAlgorithm("MD5"); err == nil {
		t.Error("MD5 accepted")
	}
}

// Property: every generated code validates at the same instant, for all
// algorithms and digit counts.
func TestGenerateValidateProperty(t *testing.T) {
	f := func(secret []byte, unix uint32, algPick, digPick uint8) bool {
		if len(secret) == 0 {
			secret = []byte{0}
		}
		alg := Algorithm(algPick % 3)
		dig := Digits(6 + digPick%3)
		o := TOTPOptions{Period: 30 * time.Second, Digits: dig, Algorithm: alg, Skew: 300 * time.Second}
		at := time.Unix(int64(unix), 0)
		code, err := TOTP(secret, at, o)
		if err != nil {
			return false
		}
		_, ok := ValidateTOTP(secret, code, at, o)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: codes always have exactly the configured number of digits.
func TestCodeLengthProperty(t *testing.T) {
	f := func(secret []byte, counter uint64, digPick uint8) bool {
		dig := Digits(6 + digPick%4)
		code, err := HOTP(secret, counter, dig, SHA1)
		if err != nil {
			return false
		}
		if len(code) != int(dig) {
			return false
		}
		for _, r := range code {
			if r < '0' || r > '9' {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: otpauth URIs round-trip arbitrary account names.
func TestURIRoundTripProperty(t *testing.T) {
	f := func(account string, secret []byte) bool {
		if len(secret) == 0 {
			secret = []byte{1}
		}
		// Strip NULs and slashes which are not meaningful in account names.
		account = strings.Map(func(r rune) rune {
			if r == 0 || r == '/' || r == ':' {
				return -1
			}
			return r
		}, account)
		k := Key{Issuer: "TACC", Account: account, Secret: secret, Options: DefaultTOTPOptions()}
		got, err := ParseURI(k.URI())
		if err != nil {
			return false
		}
		return got.Account == account && bytes.Equal(got.Secret, secret)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHOTP(b *testing.B) {
	secret := []byte("12345678901234567890")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := HOTP(secret, uint64(i), SixDigits, SHA1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkValidateTOTPWorstCaseDrift(b *testing.B) {
	secret := []byte("12345678901234567890")
	o := DefaultTOTPOptions()
	server := time.Unix(1475000000, 0)
	code, _ := TOTP(secret, server.Add(-300*time.Second), o) // worst case: max drift
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := ValidateTOTP(secret, code, server, o); !ok {
			b.Fatal("rejected")
		}
	}
}

// BenchmarkValidateTOTPHit is the common login: the code matches the
// centre step, so one HMAC is computed.
func BenchmarkValidateTOTPHit(b *testing.B) {
	secret := []byte("12345678901234567890")
	o := DefaultTOTPOptions()
	server := time.Unix(1475000000, 0)
	code, _ := TOTP(secret, server, o)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := ValidateTOTP(secret, code, server, o); !ok {
			b.Fatal("rejected")
		}
	}
}

// BenchmarkValidateTOTPMiss is the guessing path: a wrong code scans all
// 21 steps of the ±300 s window, the cost brute force pays per attempt.
func BenchmarkValidateTOTPMiss(b *testing.B) {
	secret := []byte("12345678901234567890")
	o := DefaultTOTPOptions()
	server := time.Unix(1475000000, 0)
	miss := "00000" // five digits never equal a six-digit code
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := ValidateTOTP(secret, miss, server, o); ok {
			b.Fatal("accepted")
		}
	}
}

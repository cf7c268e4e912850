package otpd

import (
	"bytes"
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"openmfa/internal/clock"
	"openmfa/internal/otp"
	"openmfa/internal/racecheck"
	"openmfa/internal/store"
)

func skipUnderRace(t *testing.T) {
	t.Helper()
	if racecheck.Enabled {
		t.Skip("alloc-count assertions are meaningless under -race")
	}
}

// TestOpenSecretCachedHitZeroAlloc gates the validation hot path's secret
// lookup: once a user's secret is in the token cache, re-opening it must
// not unseal and must not allocate.
func TestOpenSecretCachedHitZeroAlloc(t *testing.T) {
	skipUnderRace(t)
	s, _ := newServer(t, clock.NewSim(t0))
	enr, err := s.InitSoftToken("u")
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.loadRecord("u")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.openSecretCached("u", r.SecretSealed); err != nil { // warm
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(500, func() {
		sec, err := s.openSecretCached("u", r.SecretSealed)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sec, enr.Secret) {
			t.Fatal("wrong secret")
		}
	})
	if got != 0 {
		t.Errorf("openSecretCached hit allocs/op = %.1f, want 0", got)
	}
}

// TestSecretCacheCiphertextGuard pins the self-correcting property of the
// token cache: a record hits only while the stored bytes are
// byte-identical to the ones it was decoded from, and its unsealed secret
// only while the sealed secret is byte-identical to the one it was opened
// from, so a rewritten or re-sealed record can never be served stale
// state even if an explicit invalidation were missed.
func TestSecretCacheCiphertextGuard(t *testing.T) {
	c := newTokenCache()
	v1 := &record{User: "u", SecretSealed: []byte("sealed-v1"), FailCount: 1}
	c.store("u", []byte("raw-v1"), v1)
	if _, ok := c.lookup("u", []byte("raw-v2")); ok {
		t.Fatal("lookup hit despite changed stored bytes")
	}
	if r, ok := c.lookup("u", []byte("raw-v1")); !ok || r.FailCount != 1 {
		t.Fatalf("lookup(v1) = %+v, %v", r, ok)
	}
	c.setSecret("u", []byte("sealed-v2"), []byte("plain-v2"))
	if _, ok := c.secret("u", []byte("sealed-v2")); ok {
		t.Fatal("secret attached under a ciphertext the record does not carry")
	}
	c.setSecret("u", []byte("sealed-v1"), []byte("plain-v1"))
	if sec, ok := c.secret("u", []byte("sealed-v1")); !ok || string(sec) != "plain-v1" {
		t.Fatalf("secret(v1) = %q, %v", sec, ok)
	}
	// A rewrite under the same sealed secret keeps it; a re-seal drops it.
	c.store("u", []byte("raw-v1b"), &record{User: "u", SecretSealed: []byte("sealed-v1"), FailCount: 2})
	if sec, ok := c.secret("u", []byte("sealed-v1")); !ok || string(sec) != "plain-v1" {
		t.Fatalf("secret lost across a same-secret rewrite: %q, %v", sec, ok)
	}
	c.store("u", []byte("raw-v2"), &record{User: "u", SecretSealed: []byte("sealed-v2")})
	if _, ok := c.secret("u", []byte("sealed-v1")); ok {
		t.Fatal("secret hit after re-seal")
	}
	if _, ok := c.secret("u", []byte("sealed-v2")); ok {
		t.Fatal("old plaintext carried over to a new ciphertext")
	}
	c.invalidate("u")
	if _, ok := c.lookup("u", []byte("raw-v2")); ok {
		t.Fatal("lookup hit after invalidate")
	}
}

// TestSecretCacheCapDropsMap covers the size bound: crossing the cap drops
// the whole map rather than growing without limit.
func TestSecretCacheCapDropsMap(t *testing.T) {
	c := newTokenCache()
	c.m = make(map[string]cachedToken, maxCachedSecrets)
	for i := 0; i < maxCachedSecrets; i++ {
		c.m[strconv.Itoa(i)] = cachedToken{}
	}
	c.store("fresh", []byte("s"), &record{User: "fresh"})
	if n := len(c.m); n != 1 {
		t.Fatalf("map holds %d entries after cap reset, want 1", n)
	}
	if _, ok := c.lookup("fresh", []byte("s")); !ok {
		t.Fatal("entry stored during reset missing")
	}
}

// twoServers builds two otpd Servers over one store with one soft token
// enrolled through the first: the second stands for anything that rewrites
// a record behind the first's back (an admin on another node, a replica).
func twoServers(t *testing.T, sim *clock.Sim) (s1, s2 *Server, secret []byte) {
	t.Helper()
	db := store.OpenMemory()
	t.Cleanup(func() { db.Close() })
	key := bytes.Repeat([]byte{5}, 32)
	var err error
	if s1, err = New(Config{DB: db, EncryptionKey: key, Clock: sim}); err != nil {
		t.Fatal(err)
	}
	if s2, err = New(Config{DB: db, EncryptionKey: key, Clock: sim}); err != nil {
		t.Fatal(err)
	}
	enr, err := s1.InitSoftToken("u")
	if err != nil {
		t.Fatal(err)
	}
	return s1, s2, enr.Secret
}

// TestTokenCacheHonoursLockoutWrittenElsewhere: a lockout written by a
// second Server is honoured by the first's next Check, although the first
// holds the record it saved itself.
func TestTokenCacheHonoursLockoutWrittenElsewhere(t *testing.T) {
	sim := clock.NewSim(t0)
	s1, s2, secret := twoServers(t, sim)
	if res, _ := s1.Check("u", "00000"); res.OK { // s1 caches what it saved
		t.Fatal("wrong code accepted")
	}
	for i := 0; i < DefaultLockoutThreshold; i++ {
		s2.Check("u", "00000")
	}
	code, _ := otp.TOTP(secret, sim.Now(), s1.OTPOptions())
	res, err := s1.Check("u", code)
	if res.OK || !errors.Is(err, ErrLockedOut) {
		t.Fatalf("check after a lockout written elsewhere = %+v, %v; want ErrLockedOut", res, err)
	}
}

// TestTokenCacheHonoursCounterWrittenElsewhere: a code consumed through a
// second Server raises the replay high-water mark, and the first Server
// rejects that code although it last saw the lower mark.
func TestTokenCacheHonoursCounterWrittenElsewhere(t *testing.T) {
	sim := clock.NewSim(t0)
	s1, s2, secret := twoServers(t, sim)
	opts := s1.OTPOptions()
	code, _ := otp.TOTP(secret, sim.Now(), opts)
	if res, _ := s1.Check("u", code); !res.OK {
		t.Fatal("first code rejected")
	}
	sim.Advance(opts.Period)
	code, _ = otp.TOTP(secret, sim.Now(), opts)
	if res, _ := s2.Check("u", code); !res.OK {
		t.Fatal("second code rejected by the second server")
	}
	if res, _ := s1.Check("u", code); res.OK {
		t.Fatal("code consumed through the second server accepted again")
	}
	if ti, _ := s1.Token("u"); ti.FailCount != 1 {
		t.Fatalf("FailCount = %d after the replay, want 1", ti.FailCount)
	}
}

// TestTokenCacheCorruptRecord: bytes that do not decode are reported as a
// corrupt record, cached entry or not.
func TestTokenCacheCorruptRecord(t *testing.T) {
	sim := clock.NewSim(t0)
	s1, _, _ := twoServers(t, sim)
	if _, err := s1.Token("u"); err != nil { // warm
		t.Fatal(err)
	}
	if err := s1.db.Put(tokenKey("u"), []byte("{not json")); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Check("u", "123456"); err == nil || !strings.Contains(err.Error(), "corrupt record") {
		t.Fatalf("check on corrupt bytes: err = %v, want corrupt record", err)
	}
}

// TestReenrollAfterRemoveUsesFreshSecret is the stale-cache regression test:
// removing a token and enrolling a new one must validate against the new
// secret and reject codes from the old one.
func TestReenrollAfterRemoveUsesFreshSecret(t *testing.T) {
	sim := clock.NewSim(t0)
	s, _ := newServer(t, sim)
	old, err := s.InitSoftToken("u")
	if err != nil {
		t.Fatal(err)
	}
	code, _ := otp.TOTP(old.Secret, sim.Now(), s.OTPOptions())
	if res, _ := s.Check("u", code); !res.OK {
		t.Fatal("initial token rejected")
	}
	if err := s.RemoveToken("u"); err != nil {
		t.Fatal(err)
	}
	fresh, err := s.InitSoftToken("u")
	if err != nil {
		t.Fatal(err)
	}
	sim.Advance(30 * time.Second) // past the replay high-water mark
	oldCode, _ := otp.TOTP(old.Secret, sim.Now(), s.OTPOptions())
	newCode, _ := otp.TOTP(fresh.Secret, sim.Now(), s.OTPOptions())
	if oldCode != newCode { // astronomically likely; guard the assertion anyway
		if res, _ := s.Check("u", oldCode); res.OK {
			t.Fatal("code from removed token accepted")
		}
	}
	if res, _ := s.Check("u", newCode); !res.OK {
		t.Fatal("fresh token rejected")
	}
}

// BenchmarkSecretCacheHit measures the cached secret-open against the
// sealed-record baseline the cache replaced (see BenchmarkSecretOpenMiss).
func BenchmarkSecretCacheHit(b *testing.B) {
	s, _ := newServer(b, clock.NewSim(t0))
	if _, err := s.InitSoftToken("u"); err != nil {
		b.Fatal(err)
	}
	r, err := s.loadRecord("u")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.openSecretCached("u", r.SecretSealed); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.openSecretCached("u", r.SecretSealed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSecretOpenMiss is the uncached baseline: AES-GCM unseal per call.
func BenchmarkSecretOpenMiss(b *testing.B) {
	s, _ := newServer(b, clock.NewSim(t0))
	if _, err := s.InitSoftToken("u"); err != nil {
		b.Fatal(err)
	}
	r, err := s.loadRecord("u")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.openSecret("u", r.SecretSealed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadRecord measures what the token cache saves a check: a
// record whose stored bytes are cached against the reflection decode of
// the same bytes (the entry dropped before each load).
func BenchmarkLoadRecord(b *testing.B) {
	s, _ := newServer(b, clock.NewSim(t0))
	if _, err := s.InitSoftToken("u"); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		cached bool
	}{{"cached", true}, {"decode", false}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !c.cached {
					s.tokens.invalidate("u")
				}
				if _, err := s.loadRecord("u"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

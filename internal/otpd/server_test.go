package otpd

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"openmfa/internal/clock"
	"openmfa/internal/otp"
	"openmfa/internal/store"
)

var t0 = time.Date(2016, 10, 4, 9, 0, 0, 0, time.UTC)

type capturedSMS struct {
	mu   sync.Mutex
	msgs []string
}

func (c *capturedSMS) SendSMS(phone, body string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.msgs = append(c.msgs, phone+"|"+body)
	return nil
}

func (c *capturedSMS) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.msgs)
}

func newServer(t testing.TB, sim *clock.Sim) (*Server, *capturedSMS) {
	t.Helper()
	sms := &capturedSMS{}
	s, err := New(Config{
		DB:            store.OpenMemory(),
		EncryptionKey: bytes.Repeat([]byte{0x42}, 32),
		Clock:         sim,
		SMS:           sms,
		Issuer:        "TACC",
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, sms
}

// hasToken reports whether user has a token, provisional or confirmed.
func hasToken(s *Server, user string) bool {
	_, err := s.Token(user)
	return err == nil
}

func TestNewConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("missing DB accepted")
	}
	if _, err := New(Config{DB: store.OpenMemory(), EncryptionKey: []byte{1}}); err == nil {
		t.Fatal("bad key accepted")
	}
}

func validConfig() Config {
	return Config{DB: store.OpenMemory(), EncryptionKey: bytes.Repeat([]byte{0x42}, 32)}
}

func TestNewRejectsNegativeLockoutThreshold(t *testing.T) {
	cfg := validConfig()
	cfg.LockoutThreshold = -1
	if _, err := New(cfg); err == nil {
		t.Fatal("negative LockoutThreshold accepted")
	}
}

// TestNewFillsOTPOptionsPerField is a regression test: setting any OTP
// field while leaving Period zero used to silently discard the caller's
// other fields in favour of the full defaults.
func TestNewFillsOTPOptionsPerField(t *testing.T) {
	cfg := validConfig()
	cfg.OTP = otp.TOTPOptions{Digits: otp.EightDigits}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	def := otp.DefaultTOTPOptions()
	got := s.OTPOptions()
	if got.Digits != otp.EightDigits {
		t.Fatalf("Digits = %d, want 8 (caller's choice discarded)", got.Digits)
	}
	if got.Period != def.Period || got.Skew != def.Skew || got.Algorithm != def.Algorithm {
		t.Fatalf("unset fields not defaulted: %+v", got)
	}

	// A fully zero OTP config still yields the full defaults.
	s2, err := New(validConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s2.OTPOptions() != def {
		t.Fatalf("zero OTP = %+v, want defaults %+v", s2.OTPOptions(), def)
	}

	// Negative skew means "no drift tolerance", not an error.
	cfg = validConfig()
	cfg.OTP = otp.TOTPOptions{Skew: -1}
	s3, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s3.OTPOptions().Skew != 0 {
		t.Fatalf("Skew = %v, want 0", s3.OTPOptions().Skew)
	}
}

func TestNewRejectsBadOTPOptions(t *testing.T) {
	for name, o := range map[string]otp.TOTPOptions{
		"sub-second period": {Period: 500 * time.Millisecond},
		"negative period":   {Period: -time.Second},
		"bad digits":        {Digits: 5},
		"bad algorithm":     {Algorithm: otp.Algorithm(99)},
	} {
		cfg := validConfig()
		cfg.OTP = o
		if _, err := New(cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestSoftTokenLifecycle(t *testing.T) {
	sim := clock.NewSim(t0)
	s, _ := newServer(t, sim)
	enr, err := s.InitSoftToken("CProctor") // case-insensitive
	if err != nil {
		t.Fatal(err)
	}
	if enr.Type != TokenSoft || len(enr.Secret) != 20 || enr.URI == "" {
		t.Fatalf("enrollment = %+v", enr)
	}
	if !hasToken(s, "cproctor") || !hasToken(s, "CPROCTOR") {
		t.Fatal("no token after init")
	}
	// Duplicate init rejected.
	if _, err := s.InitSoftToken("cproctor"); err != ErrHasToken {
		t.Fatalf("duplicate init: %v", err)
	}
	// The device code validates.
	code, err := otp.TOTP(enr.Secret, sim.Now(), s.OTPOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Check("cproctor", code)
	if err != nil || !res.OK {
		t.Fatalf("Check = %+v, %v", res, err)
	}
	// Remove.
	if err := s.RemoveToken("cproctor"); err != nil {
		t.Fatal(err)
	}
	if hasToken(s, "cproctor") {
		t.Fatal("token survived removal")
	}
	if err := s.RemoveToken("cproctor"); err != ErrNoToken {
		t.Fatalf("double remove: %v", err)
	}
}

func TestReplayedCodeRejected(t *testing.T) {
	sim := clock.NewSim(t0)
	s, _ := newServer(t, sim)
	enr, _ := s.InitSoftToken("u")
	code, _ := otp.TOTP(enr.Secret, sim.Now(), s.OTPOptions())
	if res, _ := s.Check("u", code); !res.OK {
		t.Fatal("first use rejected")
	}
	// "the provided token code is nullified" — same code again fails.
	if res, _ := s.Check("u", code); res.OK {
		t.Fatal("replayed code accepted")
	}
	// The next period's code works.
	sim.Advance(30 * time.Second)
	code2, _ := otp.TOTP(enr.Secret, sim.Now(), s.OTPOptions())
	if res, _ := s.Check("u", code2); !res.OK {
		t.Fatal("next-period code rejected")
	}
}

func TestFailureLeavesCodeValid(t *testing.T) {
	sim := clock.NewSim(t0)
	s, _ := newServer(t, sim)
	enr, _ := s.InitSoftToken("u")
	code, _ := otp.TOTP(enr.Secret, sim.Now(), s.OTPOptions())
	// "In the event of a token mismatch, the token code remains valid".
	wrong := "000000"
	if wrong == code {
		wrong = "000001"
	}
	if res, _ := s.Check("u", wrong); res.OK {
		t.Fatal("wrong code accepted")
	}
	if res, _ := s.Check("u", code); !res.OK {
		t.Fatal("valid code rejected after a failure")
	}
}

// DESIGN.md §3.1-lockout experiment: 20 consecutive failures deactivate.
func TestLockout(t *testing.T) {
	sim := clock.NewSim(t0)
	s, _ := newServer(t, sim)
	enr, _ := s.InitSoftToken("u")

	wrongOf := func() string {
		code, _ := otp.TOTP(enr.Secret, sim.Now(), s.OTPOptions())
		if code == "999999" {
			return "999998"
		}
		return "999999"
	}
	for i := 1; i < DefaultLockoutThreshold; i++ {
		res, err := s.Check("u", wrongOf())
		if err != nil {
			t.Fatal(err)
		}
		if res.LockedOut {
			t.Fatalf("locked out at attempt %d, want %d", i, DefaultLockoutThreshold)
		}
	}
	// 20th failure trips the lockout.
	res, err := s.Check("u", wrongOf())
	if err != nil {
		t.Fatal(err)
	}
	if !res.LockedOut {
		t.Fatal("no lockout at threshold")
	}
	// Even a correct code is now rejected.
	code, _ := otp.TOTP(enr.Secret, sim.Now(), s.OTPOptions())
	if _, err := s.Check("u", code); !errors.Is(err, ErrLockedOut) {
		t.Fatalf("post-lockout check err = %v", err)
	}
	if got := s.LockedOutUsers(); len(got) != 1 || got[0] != "u" {
		t.Fatalf("LockedOutUsers = %v", got)
	}
	// Admin reset restores service.
	if err := s.ResetFailures("u"); err != nil {
		t.Fatal(err)
	}
	sim.Advance(30 * time.Second)
	code, _ = otp.TOTP(enr.Secret, sim.Now(), s.OTPOptions())
	if res, _ := s.Check("u", code); !res.OK {
		t.Fatal("valid code rejected after reset")
	}
}

func TestSuccessResetsFailCounter(t *testing.T) {
	sim := clock.NewSim(t0)
	s, _ := newServer(t, sim)
	enr, _ := s.InitSoftToken("u")
	// 19 failures then a success, then 19 more failures: never locked out
	// because the counter is *consecutive*.
	for round := 0; round < 2; round++ {
		for i := 0; i < DefaultLockoutThreshold-1; i++ {
			res, _ := s.Check("u", "000000")
			if res.LockedOut {
				t.Fatal("premature lockout")
			}
		}
		sim.Advance(30 * time.Second)
		code, _ := otp.TOTP(enr.Secret, sim.Now(), s.OTPOptions())
		if res, _ := s.Check("u", code); !res.OK {
			t.Fatal("valid code rejected")
		}
	}
}

func TestDriftWithinWindowAccepted(t *testing.T) {
	sim := clock.NewSim(t0)
	s, _ := newServer(t, sim)
	enr, _ := s.InitSoftToken("u")
	// Device 4 minutes fast: within ±300 s.
	code, _ := otp.TOTP(enr.Secret, sim.Now().Add(4*time.Minute), s.OTPOptions())
	if res, _ := s.Check("u", code); !res.OK {
		t.Fatal("4-minute drift rejected")
	}
	// 11 minutes fast: outside.
	code2, _ := otp.TOTP(enr.Secret, sim.Now().Add(11*time.Minute), s.OTPOptions())
	if res, _ := s.Check("u", code2); res.OK {
		t.Fatal("11-minute drift accepted")
	}
}

func TestSMSFlow(t *testing.T) {
	sim := clock.NewSim(t0)
	s, sms := newServer(t, sim)
	enr, err := s.InitSMSToken("storm", "5125551234")
	if err != nil {
		t.Fatal(err)
	}
	sent, msg, err := s.TriggerSMS("storm")
	if err != nil || !sent {
		t.Fatalf("TriggerSMS = %v %q %v", sent, msg, err)
	}
	if sms.count() != 1 {
		t.Fatalf("sms sent = %d", sms.count())
	}
	// While the code is active a second trigger is suppressed (§3.3).
	sent, msg, err = s.TriggerSMS("storm")
	if err != nil || sent {
		t.Fatalf("second trigger = %v %q %v", sent, msg, err)
	}
	if sms.count() != 1 {
		t.Fatal("duplicate SMS sent")
	}
	// The texted code validates.
	code, _ := otp.TOTP(enr.Secret, sim.Now(), s.OTPOptions())
	if res, _ := s.Check("storm", code); !res.OK {
		t.Fatal("SMS code rejected")
	}
	// After validity passes, another trigger is allowed.
	sim.Advance(6 * time.Minute)
	sent, _, err = s.TriggerSMS("storm")
	if err != nil || !sent {
		t.Fatalf("post-expiry trigger = %v %v", sent, err)
	}
}

func TestSMSErrors(t *testing.T) {
	sim := clock.NewSim(t0)
	s, _ := newServer(t, sim)
	if _, err := s.InitSMSToken("u", ""); err == nil {
		t.Fatal("empty phone accepted")
	}
	s.InitSoftToken("softie")
	if _, _, err := s.TriggerSMS("softie"); err != ErrNotSMS {
		t.Fatalf("trigger on soft token: %v", err)
	}
	if _, _, err := s.TriggerSMS("ghost"); err != ErrNoToken {
		t.Fatalf("trigger on missing: %v", err)
	}
}

func TestHardTokenInventoryAndAssignment(t *testing.T) {
	sim := clock.NewSim(t0)
	s, _ := newServer(t, sim)
	secret := []byte("feitian-fob-secret!!")
	if err := s.ImportHardToken("C200-0001", secret); err != nil {
		t.Fatal(err)
	}
	if err := s.ImportHardToken("C200-0001", secret); err == nil {
		t.Fatal("duplicate import accepted")
	}
	if s.HardInventoryCount() != 1 {
		t.Fatalf("inventory = %d", s.HardInventoryCount())
	}
	enr, err := s.AssignHardToken("hanlon", "C200-0001")
	if err != nil {
		t.Fatal(err)
	}
	if enr.Serial != "C200-0001" || enr.Type != TokenHard {
		t.Fatalf("enrollment = %+v", enr)
	}
	if s.HardInventoryCount() != 0 {
		t.Fatal("fob still in inventory after assignment")
	}
	// The pre-programmed secret generates valid codes.
	code, _ := otp.TOTP(secret, sim.Now(), s.OTPOptions())
	if res, _ := s.Check("hanlon", code); !res.OK {
		t.Fatal("hard token code rejected")
	}
	// Unknown or consumed serials fail.
	if _, err := s.AssignHardToken("other", "C200-0001"); err != ErrBadSerial {
		t.Fatalf("reassign consumed serial: %v", err)
	}
	if _, err := s.AssignHardToken("other", "NOPE"); err != ErrBadSerial {
		t.Fatalf("unknown serial: %v", err)
	}
	if err := s.ImportHardToken("", nil); err == nil {
		t.Fatal("empty import accepted")
	}
}

func TestStaticTrainingToken(t *testing.T) {
	sim := clock.NewSim(t0)
	s, _ := newServer(t, sim)
	if err := s.SetStaticToken("train01", "123456"); err != nil {
		t.Fatal(err)
	}
	if res, _ := s.Check("train01", "123456"); !res.OK {
		t.Fatal("static code rejected")
	}
	// Static codes are reusable within a session (they are not TOTP).
	if res, _ := s.Check("train01", "123456"); !res.OK {
		t.Fatal("static code not reusable")
	}
	if res, _ := s.Check("train01", "654321"); res.OK {
		t.Fatal("wrong static code accepted")
	}
	// "easily regenerated once the training session is finished".
	if err := s.SetStaticToken("train01", "777777"); err != nil {
		t.Fatal(err)
	}
	if res, _ := s.Check("train01", "123456"); res.OK {
		t.Fatal("old static code still valid")
	}
	if res, _ := s.Check("train01", "777777"); !res.OK {
		t.Fatal("new static code rejected")
	}
	// Validation of code format.
	for _, bad := range []string{"", "12345", "1234567", "abcdef"} {
		if err := s.SetStaticToken("t2", bad); err != ErrBadStatic {
			t.Fatalf("SetStaticToken(%q) err = %v", bad, err)
		}
	}
	// Cannot overwrite a non-training token.
	s.InitSoftToken("softie")
	if err := s.SetStaticToken("softie", "111111"); err == nil {
		t.Fatal("static overwrite of soft token allowed")
	}
}

func TestResync(t *testing.T) {
	sim := clock.NewSim(t0)
	s, _ := newServer(t, sim)
	enr, _ := s.InitSoftToken("u")
	// Device drifted 20 minutes ahead.
	dev := sim.Now().Add(20 * time.Minute)
	c1, _ := otp.TOTP(enr.Secret, dev, s.OTPOptions())
	c2, _ := otp.TOTP(enr.Secret, dev.Add(30*time.Second), s.OTPOptions())
	if err := s.Resync("u", c1, c2); err != nil {
		t.Fatal(err)
	}
	// Garbage codes fail.
	if err := s.Resync("u", "000000", "111111"); err == nil {
		t.Fatal("bogus resync succeeded")
	}
	if err := s.Resync("ghost", "1", "2"); err != ErrNoToken {
		t.Fatalf("resync missing user: %v", err)
	}
}

func TestTokensAndTokenInfo(t *testing.T) {
	sim := clock.NewSim(t0)
	s, _ := newServer(t, sim)
	s.InitSoftToken("a")
	s.InitSMSToken("b", "5125551234")
	s.SetStaticToken("c", "123123")
	infos := s.Tokens()
	if len(infos) != 3 {
		t.Fatalf("Tokens() = %d", len(infos))
	}
	ti, err := s.Token("b")
	if err != nil {
		t.Fatal(err)
	}
	if ti.Type != TokenSMS || ti.Phone != "5125551234" || !ti.Active {
		t.Fatalf("TokenInfo = %+v", ti)
	}
	if !ti.Created.Equal(t0) {
		t.Fatalf("Created = %v", ti.Created)
	}
	if _, err := s.Token("zzz"); err != ErrNoToken {
		t.Fatalf("Token missing: %v", err)
	}
}

func TestAuditChain(t *testing.T) {
	sim := clock.NewSim(t0)
	s, _ := newServer(t, sim)
	enr, _ := s.InitSoftToken("u")
	code, _ := otp.TOTP(enr.Secret, sim.Now(), s.OTPOptions())
	s.Check("u", code)
	s.Check("u", "000000")
	a := s.Audit()
	if a.Len() < 3 {
		t.Fatalf("audit entries = %d", a.Len())
	}
	if bad := a.Verify(); bad != 0 {
		t.Fatalf("fresh chain broken at %d", bad)
	}
	// Tamper with an entry: chain must break there.
	a.mu.Lock()
	a.entries[1].Detail = "forged"
	a.mu.Unlock()
	if bad := a.Verify(); bad != 2 {
		t.Fatalf("Verify after tamper = %d, want 2", bad)
	}

	// Past maxAuditEntries the oldest entries drop: Seq keeps counting,
	// the chain verifies from the dropped entry's MAC, and tampering with
	// any kept entry, or with that anchor, is still detected.
	w := NewAudit([]byte("audit-key"), sim.Now)
	const extra = 3
	for i := 0; i < maxAuditEntries+extra; i++ {
		w.Record("check", "u", fmt.Sprintf("n=%d", i), i%2 == 0)
	}
	es := w.Entries()
	if len(es) != maxAuditEntries || w.Len() != maxAuditEntries {
		t.Fatalf("kept %d entries (Len %d), want %d", len(es), w.Len(), maxAuditEntries)
	}
	if es[0].Seq != extra+1 || es[len(es)-1].Seq != maxAuditEntries+extra {
		t.Fatalf("kept Seq %d..%d, want %d..%d", es[0].Seq, es[len(es)-1].Seq, extra+1, maxAuditEntries+extra)
	}
	if bad := w.Verify(); bad != 0 {
		t.Fatalf("wrapped chain broken at %d", bad)
	}
	for _, pos := range []int{1, 2, maxAuditEntries - extra, maxAuditEntries} {
		w.mu.Lock()
		e := w.at(pos - 1)
		saved := e.Detail
		e.Detail = "forged"
		w.mu.Unlock()
		if bad := w.Verify(); bad != pos {
			t.Errorf("Verify after tampering kept entry %d = %d", pos, bad)
		}
		w.mu.Lock()
		e.Detail = saved
		w.mu.Unlock()
	}
	w.mu.Lock()
	w.anchor = es[1].MAC
	w.mu.Unlock()
	if bad := w.Verify(); bad != 1 {
		t.Fatalf("Verify with a forged anchor = %d, want 1", bad)
	}
}

// TestAuditMACsMatchFprintfChain holds the audit MACs to the formula the
// chain has always used — HMAC-SHA256 over
// fmt "%d|%d|%s|%s|%s|%t|" of the entry, then the previous MAC — so a
// trail exported before and after any change verifies the same way.
func TestAuditMACsMatchFprintfChain(t *testing.T) {
	key := []byte("golden-audit-key")
	now := t0
	a := NewAudit(key, func() time.Time { return now })
	steps := []struct {
		action, user, detail string
		success              bool
	}{
		{"init", "alice", "type=soft", true},
		{"check", "alice", "", true},
		{"check", "alice", "fail_count=1", false},
		{"import_hard", "", "serial=FT-0001", true},
		{"sms", "bob|x", "otpd: sms send: gateway down", false},
		{"check", "ünïcode", "fail_count=20", false},
		{"", "", "", false},
	}
	var prev []byte
	for i, st := range steps {
		now = now.Add(time.Duration(i) * 1234567 * time.Nanosecond)
		a.Record(st.action, st.user, st.detail, st.success)
		h := hmac.New(sha256.New, key)
		fmt.Fprintf(h, "%d|%d|%s|%s|%s|%t|", i+1, now.UTC().UnixNano(), st.action, st.user, st.detail, st.success)
		h.Write(prev)
		prev = h.Sum(nil)
		if got := a.Entries()[i].MAC; got != hex.EncodeToString(prev) {
			t.Fatalf("entry %d MAC %s, formula %x", i+1, got, prev)
		}
	}
}

func TestSecretsEncryptedAtRest(t *testing.T) {
	sim := clock.NewSim(t0)
	db := store.OpenMemory()
	s, err := New(Config{DB: db, EncryptionKey: bytes.Repeat([]byte{9}, 32), Clock: sim})
	if err != nil {
		t.Fatal(err)
	}
	enr, _ := s.InitSoftToken("u")
	raw, err := db.Get("token/u")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, enr.Secret) {
		t.Fatal("plaintext secret found in the store")
	}
	b32 := otp.EncodeSecret(enr.Secret)
	if bytes.Contains(raw, []byte(b32)) {
		t.Fatal("base32 secret found in the store")
	}
}

func TestPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	key := bytes.Repeat([]byte{7}, 32)
	sim := clock.NewSim(t0)

	db, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := New(Config{DB: db, EncryptionKey: key, Clock: sim})
	enr, _ := s.InitSoftToken("u")
	db.Close()

	db2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	s2, _ := New(Config{DB: db2, EncryptionKey: key, Clock: sim})
	sim.Advance(time.Minute)
	code, _ := otp.TOTP(enr.Secret, sim.Now(), s2.OTPOptions())
	if res, _ := s2.Check("u", code); !res.OK {
		t.Fatal("token unusable after restart")
	}
}

func TestConcurrentChecksDoNotRaceLockout(t *testing.T) {
	sim := clock.NewSim(t0)
	s, _ := newServer(t, sim)
	s.InitSoftToken("u")
	var wg sync.WaitGroup
	for i := 0; i < 40; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Check("u", "000000")
		}()
	}
	wg.Wait()
	ti, _ := s.Token("u")
	if ti.Active {
		t.Fatal("40 concurrent failures did not deactivate")
	}
	// The counter stops exactly at the threshold: once deactivated,
	// further attempts short-circuit without incrementing, and no
	// updates may be lost below it.
	if ti.FailCount != DefaultLockoutThreshold {
		t.Fatalf("FailCount = %d, want %d", ti.FailCount, DefaultLockoutThreshold)
	}
}

func TestCurrentCodeHelper(t *testing.T) {
	sim := clock.NewSim(t0)
	s, _ := newServer(t, sim)
	s.InitSoftToken("u")
	code, err := s.CurrentCode("u", 0)
	if err != nil || len(code) != 6 {
		t.Fatalf("CurrentCode = %q, %v", code, err)
	}
	if res, _ := s.Check("u", code); !res.OK {
		t.Fatal("CurrentCode does not validate")
	}
	s.SetStaticToken("tr", "222333")
	c2, _ := s.CurrentCode("tr", 0)
	if c2 != "222333" {
		t.Fatalf("static CurrentCode = %q", c2)
	}
}

func TestValidType(t *testing.T) {
	for _, typ := range []TokenType{TokenSoft, TokenSMS, TokenHard, TokenTraining} {
		if !ValidType(typ) {
			t.Errorf("%s invalid", typ)
		}
	}
	if ValidType("yubikey") {
		t.Error("unknown type valid")
	}
}

func BenchmarkCheckSuccess(b *testing.B) {
	sim := clock.NewSim(t0)
	s, _ := newServer(b, sim)
	enr, _ := s.InitSoftToken("u")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Advance(30 * time.Second)
		code, _ := otp.TOTP(enr.Secret, sim.Now(), s.OTPOptions())
		if res, _ := s.Check("u", code); !res.OK {
			b.Fatal("rejected")
		}
	}
}

func BenchmarkCheckFailureWorstCase(b *testing.B) {
	sim := clock.NewSim(t0)
	s, _ := newServer(b, sim)
	s.InitSoftToken("u")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Check("u", "000000")
		if i%10 == 9 {
			s.ResetFailures("u") // keep it from locking out
		}
	}
}

func ExampleServer_Check() {
	db := store.OpenMemory()
	sim := clock.NewSim(time.Date(2016, 10, 4, 0, 0, 0, 0, time.UTC))
	s, _ := New(Config{DB: db, EncryptionKey: bytes.Repeat([]byte{1}, 32), Clock: sim})
	enr, _ := s.InitSoftToken("alice")
	code, _ := otp.TOTP(enr.Secret, sim.Now(), s.OTPOptions())
	res, _ := s.Check("alice", code)
	fmt.Println(res.OK, res.Message)
	// Output: true token validated
}

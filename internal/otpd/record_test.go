package otpd

import (
	"bytes"
	"errors"
	"reflect"
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

// checkedWriter stands between a Server and its store and checks each
// token record a save or an enrolment hands in as the decoded form against a fresh decode of
// the bytes the save writes.
type checkedWriter struct {
	t     *testing.T
	s     *Server
	saves int
}

func (w *checkedWriter) Apply(ops []store.Op) error {
	for _, op := range ops {
		if op.Delete || !strings.HasPrefix(op.Key, "token/") {
			continue // an inventory op beside the record
		}
		got, ok := op.Decoded.(*record)
		if !ok {
			w.t.Errorf("%s written without its decoded record", op.Key)
			continue
		}
		want, err := w.s.decodeRecord(got.User, op.Value)
		if err != nil {
			w.t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			w.t.Errorf("%s: handed in %+v, its bytes decode to %+v", op.Key, got, want)
		}
		w.saves++
	}
	return w.s.db.Apply(ops)
}

// TestSavedRecordEqualsFreshDecode: every record saveRecord hands the
// store equals what the store would decode from the bytes it wrote,
// unsealed secret included, across each state change a token goes
// through. A record handed in wrong would be served to every later
// check until the next write.
func TestSavedRecordEqualsFreshDecode(t *testing.T) {
	sim := clock.NewSim(t0)
	s, sms := newServer(t, sim)
	w := &checkedWriter{t: t, s: s}
	s.writes = w
	opts := s.OTPOptions()
	steps := []struct {
		name string
		do   func() error
	}{
		{"enrol", func() error { _, err := s.InitSoftToken("u"); return err }},
		{"check pass", func() error { return checkOutcome(s, "u", currentCode(t, s, "u"), true) }},
		{"check fail", func() error { return checkOutcome(s, "u", "000000", false) }},
		{"lockout", func() error {
			for i := 0; i < DefaultLockoutThreshold; i++ {
				s.Check("u", "000000")
			}
			if ti, _ := s.Token("u"); ti.Active {
				return errors.New("token still active")
			}
			return nil
		}},
		{"resync", func() error {
			dev := sim.Now().Add(20 * time.Minute)
			c1, _ := otp.TOTP(currentSecret(t, s, "u"), dev, opts)
			c2, _ := otp.TOTP(currentSecret(t, s, "u"), dev.Add(opts.Period), opts)
			return s.Resync("u", c1, c2)
		}},
		{"check after a write elsewhere", func() error {
			raw, err := s.db.Get(tokenKey("u"))
			if err != nil {
				return err
			}
			if err := s.db.Put(tokenKey("u"), raw); err != nil { // forces a decode
				return err
			}
			sim.Advance(30 * time.Minute)
			return checkOutcome(s, "u", currentCode(t, s, "u"), true)
		}},
		{"sms enrol", func() error { _, err := s.InitSMSToken("storm", "+15125550100"); return err }},
		{"sms trigger", func() error {
			if sent, _, err := s.TriggerSMS("storm"); !sent || err != nil || sms.count() != 1 {
				return errors.New("no SMS sent")
			}
			return checkOutcome(s, "storm", currentCode(t, s, "storm"), true)
		}},
		{"re-enrol", func() error {
			if err := s.RemoveToken("u"); err != nil {
				return err
			}
			if _, err := s.InitSoftToken("u"); err != nil {
				return err
			}
			sim.Advance(opts.Period)
			return checkOutcome(s, "u", currentCode(t, s, "u"), true)
		}},
		{"training", func() error {
			if err := s.SetStaticToken("train01", "424242"); err != nil {
				return err
			}
			return checkOutcome(s, "train01", "424242", true)
		}},
		{"hard", func() error {
			if err := s.ImportHardToken("C200-0001", []byte("fob-secret-1234-----")); err != nil {
				return err
			}
			if _, err := s.AssignHardToken("hanlon", "C200-0001"); err != nil {
				return err
			}
			return checkOutcome(s, "hanlon", currentCode(t, s, "hanlon"), true)
		}},
	}
	for _, st := range steps {
		before := w.saves
		if err := st.do(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if w.saves == before {
			t.Fatalf("%s saved no record", st.name)
		}
	}
}

// checkOutcome runs one Check and reports an outcome other than want.
func checkOutcome(s *Server, user, code string, want bool) error {
	res, err := s.Check(user, code)
	if err != nil {
		return err
	}
	if res.OK != want {
		return errors.New("check of " + user + ": " + res.Message)
	}
	return nil
}

// currentSecret unseals user's secret from the stored bytes.
func currentSecret(t *testing.T, s *Server, user string) []byte {
	t.Helper()
	raw, err := s.db.Get(tokenKey(user))
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.decodeRecord(user, raw)
	if err != nil {
		t.Fatal(err)
	}
	return r.secret
}

// currentCode is the code user's device shows now.
func currentCode(t *testing.T, s *Server, user string) string {
	t.Helper()
	code, err := otp.TOTP(currentSecret(t, s, user), s.clk.Now(), s.OTPOptions())
	if err != nil {
		t.Fatal(err)
	}
	return code
}

// BenchmarkLoadRecord measures what the store's decoded copy saves a
// check: a record loaded as the store holds it decoded, against the same
// record after its bytes were rewritten, which loads through the JSON
// decode and the secret unseal (the rewrite is timed too).
func BenchmarkLoadRecord(b *testing.B) {
	s, _ := newServer(b, clock.NewSim(t0))
	if _, err := s.InitSoftToken("u"); err != nil {
		b.Fatal(err)
	}
	raw, err := s.db.Get(tokenKey("u"))
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		decode bool
	}{{"decoded", false}, {"decode", true}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if c.decode {
					if err := s.db.Put(tokenKey("u"), raw); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := s.loadRecord("u"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

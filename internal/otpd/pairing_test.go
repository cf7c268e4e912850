package otpd

import (
	"bytes"
	"testing"
	"time"

	"openmfa/internal/clock"
	"openmfa/internal/store"
)

// TestPairingReadsTokenRecord: the pairing query reads the token record,
// case-insensitively. A user without a token reads "none", and so does a
// provisional token, until its first accepted code confirms it; a wrong
// code leaves it provisional. Each new pairing draws a new pairing ID.
func TestPairingReadsTokenRecord(t *testing.T) {
	sim := clock.NewSim(t0)
	s, _ := newServer(t, sim)
	pairing := func(user, want string) {
		t.Helper()
		if p, err := s.Pairing(user); err != nil || p != want {
			t.Fatalf("Pairing(%q) = %q, %v; want %q", user, p, err, want)
		}
	}
	if _, err := s.InitSMSToken("storm", "+15125550100"); err != nil {
		t.Fatal(err)
	}
	pairing("Storm", "sms")
	pairing("ghost", "none")

	first, err := s.initGenerated("alice", TokenSoft, "", true)
	if err != nil {
		t.Fatal(err)
	}
	pairing("alice", "none")
	if res, _ := s.Check("alice", "000000"); res.OK {
		t.Fatal("wrong code accepted")
	}
	pairing("alice", "none")
	if res, err := s.Check("alice", currentCode(t, s, "alice")); err != nil || !res.OK {
		t.Fatalf("confirming check: %+v, %v", res, err)
	}
	pairing("alice", "soft")

	if err := s.RemoveToken("alice"); err != nil {
		t.Fatal(err)
	}
	pairing("alice", "none")
	again, err := s.InitSoftToken("alice")
	if err != nil {
		t.Fatal(err)
	}
	pairing("alice", "soft")
	if _, id, _ := s.pairing("alice"); id != again.PairingID || id == first.PairingID || id == 0 {
		t.Fatalf("pairing IDs %d then %d, want two distinct non-zero IDs", first.PairingID, again.PairingID)
	}
}

// TestDirectoryRebuiltAfterRestart: the pairing the PAM token module reads
// survives closing the token store and reopening otpd on it, so a restart
// never makes a paired user read "none".
func TestDirectoryRebuiltAfterRestart(t *testing.T) {
	dir := t.TempDir()
	key := bytes.Repeat([]byte{0x42}, 32)
	open := func() (*Server, *store.Store) {
		db, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{DB: db, EncryptionKey: key, Clock: clock.NewSim(t0)})
		if err != nil {
			t.Fatal(err)
		}
		return s, db
	}
	s, db := open()
	if _, err := s.InitSMSToken("storm", "+15125550100"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.initGenerated("hanlon", TokenSoft, "", true); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	s, db = open()
	defer db.Close()
	for user, want := range map[string]string{"storm": "sms", "hanlon": "none", "ghost": "none"} {
		if p, err := s.Pairing(user); err != nil || p != want {
			t.Errorf("after restart: Pairing(%q) = %q, %v; want %q", user, p, err, want)
		}
	}
}

// TestPairingFailsOnStoreError: a user without a token reads "none", but
// a token store that cannot be read is an error, never "none": the token
// module then challenges instead of waiving the factor.
func TestPairingFailsOnStoreError(t *testing.T) {
	s, _ := newServer(t, clock.NewSim(t0))
	if _, err := s.InitSMSToken("storm", "+15125550100"); err != nil {
		t.Fatal(err)
	}
	s.db.Close()
	for _, u := range []string{"storm", "ghost"} {
		if p, err := s.Pairing(u); err == nil {
			t.Errorf("Pairing(%q) on a closed store = %q, nil; want an error", u, p)
		}
	}
}

// TestProvisionalFobReturnsToInventory: removing a provisional hard token
// puts its fob back into inventory in the Apply that deletes the token,
// and so does an enrolment that replaces it, so the same fob can be
// enrolled again. A confirmed fob that is removed stays out.
func TestProvisionalFobReturnsToInventory(t *testing.T) {
	sim := clock.NewSim(t0)
	s, _ := newServer(t, sim)
	secret := []byte("fob-secret-0001-----")
	if err := s.ImportHardToken("C200-0001", secret); err != nil {
		t.Fatal(err)
	}
	inventory := func(want int) {
		t.Helper()
		if n := s.HardInventoryCount(); n != want {
			t.Fatalf("inventory = %d, want %d", n, want)
		}
	}
	applies := func(want uint64, do func() error) {
		t.Helper()
		before := s.db.LSN()
		if err := do(); err != nil {
			t.Fatal(err)
		}
		if got := s.db.LSN() - before; got != want {
			t.Fatalf("%d Applies, want %d", got, want)
		}
	}
	assign := func() error { _, err := s.assignHard("hanlon", "C200-0001", true); return err }

	applies(1, assign)
	inventory(0)
	applies(1, func() error { return s.RemoveToken("hanlon") })
	inventory(1)

	applies(1, assign)
	applies(2, assign) // the same fob again: release it, then assign it
	inventory(0)
	applies(2, func() error { _, err := s.initGenerated("hanlon", TokenSoft, "", true); return err })
	inventory(1)
	if p, _ := s.Pairing("hanlon"); p != "none" {
		t.Fatalf("pairing = %q, want none", p)
	}
	if err := s.RemoveToken("hanlon"); err != nil {
		t.Fatal(err)
	}

	applies(1, assign)
	sim.Advance(30 * time.Second)
	if res, err := s.Check("hanlon", currentCode(t, s, "hanlon")); err != nil || !res.OK {
		t.Fatalf("confirming check: %+v, %v", res, err)
	}
	if _, err := s.assignHard("hanlon", "C200-0001", true); err != ErrHasToken {
		t.Fatalf("assign over a confirmed token: %v, want ErrHasToken", err)
	}
	applies(1, func() error { return s.RemoveToken("hanlon") })
	inventory(0)
}

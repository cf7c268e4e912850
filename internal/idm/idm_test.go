package idm

import (
	"crypto/ed25519"
	"testing"
	"time"

	"openmfa/internal/clock"
	"openmfa/internal/directory"
	"openmfa/internal/store"
)

var t0 = time.Date(2016, 8, 1, 0, 0, 0, 0, time.UTC)

func newIDM(t testing.TB) (*IDM, *directory.Dir) {
	t.Helper()
	dir := directory.New()
	return New(store.OpenMemory(), dir, clock.NewSim(t0)), dir
}

func TestCreateAndLookup(t *testing.T) {
	m, dir := newIDM(t)
	a, err := m.Create("CProctor", "cproctor@hpc.example", "pw1", ClassStaff)
	if err != nil {
		t.Fatal(err)
	}
	if a.Username != "cproctor" || a.UID < 1000 || a.Pairing != PairingNone {
		t.Fatalf("account = %+v", a)
	}
	if !a.Created.Equal(t0) {
		t.Fatalf("Created = %v", a.Created)
	}
	got, err := m.Lookup("cproctor")
	if err != nil || got.UID != a.UID {
		t.Fatalf("lookup: %+v, %v", got, err)
	}
	// Directory entry mirrored.
	p, err := dir.Attr("cproctor", "mfapairing")
	if err != nil {
		t.Fatal(err)
	}
	if uid, _ := dir.Attr("cproctor", "uid"); p != "none" || uid != "cproctor" {
		t.Fatalf("dir entry: mfapairing %q, uid %q", p, uid)
	}
	// Duplicates and empties rejected.
	if _, err := m.Create("cproctor", "x", "y", ClassUser); err != ErrExists {
		t.Fatalf("duplicate: %v", err)
	}
	if _, err := m.Create("  ", "x", "y", ClassUser); err == nil {
		t.Fatal("blank username accepted")
	}
	if _, err := m.Lookup("ghost"); err != ErrNoUser {
		t.Fatalf("missing: %v", err)
	}
}

func TestUIDsUniqueAndResumeAfterRestart(t *testing.T) {
	db := store.OpenMemory()
	m := New(db, nil, clock.NewSim(t0))
	a, _ := m.Create("a", "", "p", ClassUser)
	b, _ := m.Create("b", "", "p", ClassUser)
	if a.UID == b.UID {
		t.Fatal("duplicate uids")
	}
	// New IDM over the same store must not reuse uids.
	m2 := New(db, nil, clock.NewSim(t0))
	c, _ := m2.Create("c", "", "p", ClassUser)
	if c.UID <= b.UID {
		t.Fatalf("uid sequence regressed: %d after %d", c.UID, b.UID)
	}
}

func TestAuthenticate(t *testing.T) {
	m, _ := newIDM(t)
	m.Create("u", "", "correct horse", ClassUser)
	if err := m.Authenticate("u", "correct horse"); err != nil {
		t.Fatal(err)
	}
	if err := m.Authenticate("u", "wrong"); err != ErrBadCreds {
		t.Fatalf("wrong pw: %v", err)
	}
	if err := m.Authenticate("ghost", "x"); err != ErrBadCreds {
		t.Fatalf("ghost: %v", err)
	}
	// Password change.
	if err := m.SetPassword("u", "new"); err != nil {
		t.Fatal(err)
	}
	if err := m.Authenticate("u", "correct horse"); err == nil {
		t.Fatal("old password still works")
	}
	if err := m.Authenticate("u", "new"); err != nil {
		t.Fatal("new password rejected")
	}
}

func TestPublicKeys(t *testing.T) {
	m, _ := newIDM(t)
	m.Create("u", "", "p", ClassUser)
	pub, _, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddPublicKey("u", pub); err != nil {
		t.Fatal(err)
	}
	// Idempotent.
	if err := m.AddPublicKey("u", pub); err != nil {
		t.Fatal(err)
	}
	keys, err := m.PublicKeys("u")
	if err != nil || len(keys) != 1 {
		t.Fatalf("keys = %d, %v", len(keys), err)
	}
	if !keys[0].Equal(pub) {
		t.Fatal("key mismatch")
	}
	if err := m.AddPublicKey("u", []byte{1, 2}); err == nil {
		t.Fatal("short key accepted")
	}
	if err := m.AddPublicKey("ghost", pub); err != ErrNoUser {
		t.Fatalf("ghost: %v", err)
	}
}

// TestDirectoryRebuiltAfterRestart: an IDM reopened on its store mirrors
// every account into the fresh directory with its current pairing, so a
// restart does not make paired users read "none".
func TestDirectoryRebuiltAfterRestart(t *testing.T) {
	db := store.OpenMemory()
	m := New(db, directory.New(), clock.NewSim(t0))
	m.Create("storm", "", "p", ClassStaff)
	m.Create("hanlon", "", "p", ClassStaff)
	if err := m.SetPairing("storm", PairingSMS); err != nil {
		t.Fatal(err)
	}
	dir := directory.New()
	New(db, dir, clock.NewSim(t0))
	for user, want := range map[string]string{"storm": "sms", "hanlon": "none"} {
		if p, err := dir.Attr(user, "mfapairing"); err != nil || p != want {
			t.Errorf("after restart: %s mfapairing = %q, %v; want %q", user, p, err, want)
		}
	}
}

func TestSetPairingMirrorsDirectory(t *testing.T) {
	m, dir := newIDM(t)
	m.Create("storm", "", "p", ClassStaff)
	if err := m.SetPairing("storm", PairingSMS); err != nil {
		t.Fatal(err)
	}
	p, err := m.Pairing("storm")
	if err != nil || p != PairingSMS {
		t.Fatalf("pairing = %v, %v", p, err)
	}
	if dp, _ := dir.Attr("storm", "mfapairing"); dp != "sms" {
		t.Fatalf("dir mfapairing = %q", dp)
	}
	// Unpair.
	m.SetPairing("storm", PairingNone)
	if dp, _ := dir.Attr("storm", "mfapairing"); dp != "none" {
		t.Fatal("unpair not mirrored")
	}
	if err := m.SetPairing("ghost", PairingSoft); err != ErrNoUser {
		t.Fatalf("ghost: %v", err)
	}
}

func TestAllAndCount(t *testing.T) {
	m, _ := newIDM(t)
	for _, u := range []string{"c", "a", "b"} {
		m.Create(u, "", "p", ClassUser)
	}
	all := m.All()
	if len(all) != 3 || m.Count() != 3 {
		t.Fatalf("All=%d Count=%d", len(all), m.Count())
	}
	// Sorted by username (store scan order).
	if all[0].Username != "a" || all[2].Username != "c" {
		t.Fatalf("order: %s %s %s", all[0].Username, all[1].Username, all[2].Username)
	}
}

func TestNilDirectoryOK(t *testing.T) {
	m := New(store.OpenMemory(), nil, nil)
	if _, err := m.Create("u", "", "p", ClassUser); err != nil {
		t.Fatal(err)
	}
	if err := m.SetPairing("u", PairingSoft); err != nil {
		t.Fatal(err)
	}
}

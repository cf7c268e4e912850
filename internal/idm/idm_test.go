package idm

import (
	"crypto/ed25519"
	"testing"
	"time"

	"openmfa/internal/clock"
	"openmfa/internal/racecheck"
	"openmfa/internal/store"
)

var t0 = time.Date(2016, 8, 1, 0, 0, 0, 0, time.UTC)

func newIDM(t testing.TB) *IDM {
	t.Helper()
	return New(store.OpenMemory(), clock.NewSim(t0))
}

func TestCreateAndLookup(t *testing.T) {
	m := newIDM(t)
	a, err := m.Create("CProctor", "cproctor@hpc.example", "pw1", ClassStaff)
	if err != nil {
		t.Fatal(err)
	}
	if a.Username != "cproctor" || a.UID < 1000 {
		t.Fatalf("account = %+v", a)
	}
	if !a.Created.Equal(t0) {
		t.Fatalf("Created = %v", a.Created)
	}
	got, err := m.Lookup("cproctor")
	if err != nil || got.UID != a.UID {
		t.Fatalf("lookup: %+v, %v", got, err)
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
	m := New(db, clock.NewSim(t0))
	a, _ := m.Create("a", "", "p", ClassUser)
	b, _ := m.Create("b", "", "p", ClassUser)
	if a.UID == b.UID {
		t.Fatal("duplicate uids")
	}
	// New IDM over the same store must not reuse uids.
	m2 := New(db, clock.NewSim(t0))
	c, _ := m2.Create("c", "", "p", ClassUser)
	if c.UID <= b.UID {
		t.Fatalf("uid sequence regressed: %d after %d", c.UID, b.UID)
	}
}

func TestAuthenticate(t *testing.T) {
	m := newIDM(t)
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

// TestAuthenticateWarmAllocs gates the first factor of every password
// login: once the account is decoded and the password verified, a repeat
// Authenticate reads the store's decoded account, keys the verify cache
// on the stack and allocates nothing.
func TestAuthenticateWarmAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("alloc-count assertions are meaningless under -race")
	}
	m := newIDM(t)
	m.Create("alice", "", "correct horse", ClassUser)
	if err := m.Authenticate("alice", "correct horse"); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(500, func() {
		if err := m.Authenticate("alice", "correct horse"); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Errorf("warm Authenticate: %.1f allocs/op, want 0", got)
	}
}

func TestPublicKeys(t *testing.T) {
	m := newIDM(t)
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

// TestLookupIsACopy: callers of Lookup and Create get their own copy; a
// change to it reaches neither the store nor the copy other readers share.
func TestLookupIsACopy(t *testing.T) {
	m := newIDM(t)
	a, _ := m.Create("u", "", "p", ClassUser)
	pub, _, _ := ed25519.GenerateKey(nil)
	if err := m.AddPublicKey("u", pub); err != nil {
		t.Fatal(err)
	}
	got, err := m.Lookup("u")
	if err != nil {
		t.Fatal(err)
	}
	a.Email, got.Email = "x@evil.example", "x@evil.example"
	got.PublicKeys[0] = "tampered"
	if now, _ := m.Lookup("u"); now.Email != "" {
		t.Fatalf("email changed through a copy: %q", now.Email)
	}
	if keys, _ := m.PublicKeys("u"); len(keys) != 1 || !keys[0].Equal(pub) {
		t.Fatal("public key changed through a copy")
	}
}

func TestAllAndCount(t *testing.T) {
	m := newIDM(t)
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

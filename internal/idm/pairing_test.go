package idm_test

import (
	"testing"

	"openmfa/internal/clock"
	"openmfa/internal/idm"
	"openmfa/internal/pam"
	"openmfa/internal/store"
)

// TestDirectoryRebuiltAfterRestart: the pairing the PAM token module reads
// through its lookup survives closing the account store and reopening idm
// on it, so a restart never makes a paired user read "none".
func TestDirectoryRebuiltAfterRestart(t *testing.T) {
	dir := t.TempDir()
	db, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := idm.New(db, clock.Real{})
	m.Create("storm", "", "p", idm.ClassStaff)
	m.Create("hanlon", "", "p", idm.ClassStaff)
	if err := m.SetPairing("storm", idm.PairingSMS); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var lookup pam.PairingLookup = idm.New(db, clock.Real{})
	for user, want := range map[string]string{"storm": "sms", "hanlon": "none", "ghost": "none"} {
		if p, err := lookup.Pairing(user); err != nil || p != want {
			t.Errorf("after restart: Pairing(%q) = %q, %v; want %q", user, p, err, want)
		}
	}
}

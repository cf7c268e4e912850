package otpd

import (
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"openmfa/internal/clock"
	"openmfa/internal/httpdigest"
	"openmfa/internal/otp"
)

// clientWorld wires AdminClient → AdminAPI → Server, the exact §3.5
// portal-to-back-end path.
func clientWorld(t *testing.T) (*Server, *capturedSMS, *clock.Sim, *AdminClient) {
	t.Helper()
	sim := clock.NewSim(t0)
	s, sms := newServer(t, sim)
	api := &AdminAPI{
		OTP:   s,
		Realm: "otpd-admin",
		Creds: httpdigest.StaticCredentials{
			"portal": httpdigest.HA1("portal", "otpd-admin", "pw"),
		},
	}
	srv := httptest.NewServer(api.Handler())
	t.Cleanup(srv.Close)
	return s, sms, sim, &AdminClient{BaseURL: srv.URL, Username: "portal", Password: "pw"}
}

func TestAdminClientSoftLifecycle(t *testing.T) {
	s, _, sim, c := clientWorld(t)

	enr, err := c.Init("alice", TokenSoft, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if enr.Type != TokenSoft || enr.Secret == "" || enr.URI == "" {
		t.Fatalf("enrollment = %+v", enr)
	}
	secret, err := enr.SecretBytes()
	if err != nil || len(secret) != 20 {
		t.Fatalf("SecretBytes = %d bytes, %v", len(secret), err)
	}

	// Validate via the open endpoint.
	code, _ := otp.TOTP(secret, sim.Now(), s.OTPOptions())
	ok, msg, err := c.Validate("alice", code)
	if err != nil || !ok {
		t.Fatalf("Validate = %v %q %v", ok, msg, err)
	}
	// Replay refused.
	ok, _, err = c.Validate("alice", code)
	if err != nil || ok {
		t.Fatalf("replay Validate = %v, %v", ok, err)
	}

	// Show.
	info, err := c.Show("alice")
	if err != nil || info.Type != TokenSoft || !info.Active {
		t.Fatalf("Show = %+v, %v", info, err)
	}

	// Remove, then Show → APIError with 404.
	if err := c.Remove("alice", nil); err != nil {
		t.Fatal(err)
	}
	_, err = c.Show("alice")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Fatalf("Show after remove: %v", err)
	}
	if apiErr.Error() == "" {
		t.Fatal("empty APIError message")
	}
}

// TestAdminClientAbortOnlyItsOwnPairing: /admin/pairing reads as the token
// module does, and /admin/abort removes a provisional token only for the
// pairing ID that enrolled it. A pairing that replaced it, or one a code
// has confirmed, survives the abort.
func TestAdminClientAbortOnlyItsOwnPairing(t *testing.T) {
	s, _, sim, c := clientWorld(t)
	pairing := func(want string, wantID uint64) {
		t.Helper()
		if p, id, err := c.Pairing("alice"); err != nil || p != want || id != wantID {
			t.Fatalf("Pairing = %q %d, %v; want %q %d", p, id, err, want, wantID)
		}
	}
	first, err := c.Init("alice", TokenSoft, "", "")
	if err != nil || first.PairingID == 0 {
		t.Fatalf("Init = %+v, %v", first, err)
	}
	pairing("none", 0)
	second, err := c.Init("alice", TokenSoft, "", "") // replaces the first
	if err != nil || second.PairingID == first.PairingID {
		t.Fatalf("second Init = %+v, %v", second, err)
	}
	if err := c.Abort("alice", first.PairingID); err != nil {
		t.Fatal(err)
	}
	secret, _ := second.SecretBytes()
	code, _ := otp.TOTP(secret, sim.Now(), s.OTPOptions())
	if ok, msg, err := c.Validate("alice", code); err != nil || !ok {
		t.Fatalf("second pairing did not survive the first's abort: %v %q %v", ok, msg, err)
	}
	pairing("soft", second.PairingID)
	if err := c.Abort("alice", second.PairingID); err != nil {
		t.Fatal(err)
	}
	pairing("soft", second.PairingID) // confirmed: the abort leaves it

	if err := c.Remove("alice", nil); err != nil {
		t.Fatal(err)
	}
	third, err := c.Init("alice", TokenSoft, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Abort("alice", third.PairingID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Show("alice"); err == nil {
		t.Fatal("abort left its own provisional token")
	}
}

// TestAdminClientRemoveNamedPairing: a remove that names a pairing ID, as
// the portal's unpair link does, removes only that pairing. After an unpair
// and a re-pair the stale ID is a 409 and the new pairing stays.
func TestAdminClientRemoveNamedPairing(t *testing.T) {
	s, _, sim, c := clientWorld(t)
	pair := func() uint64 {
		t.Helper()
		enr, err := c.Init("alice", TokenSoft, "", "")
		if err != nil {
			t.Fatal(err)
		}
		secret, _ := enr.SecretBytes()
		code, _ := otp.TOTP(secret, sim.Now(), s.OTPOptions())
		if ok, msg, err := c.Validate("alice", code); err != nil || !ok {
			t.Fatalf("confirm: %v %q %v", ok, msg, err)
		}
		_, id, _ := c.Pairing("alice")
		return id
	}
	stale := pair() // the ID an emailed link signs
	if err := c.Remove("alice", &stale); err != nil {
		t.Fatal(err)
	}
	sim.Advance(31 * time.Second)
	fresh := pair()
	var apiErr *APIError
	if err := c.Remove("alice", &stale); !errors.As(err, &apiErr) || apiErr.Status != 409 {
		t.Fatalf("remove with the stale ID: %v, want a 409", err)
	}
	if p, id, err := c.Pairing("alice"); err != nil || p != "soft" || id != fresh {
		t.Fatalf("after the stale remove: %q %d, %v; want soft %d", p, id, err, fresh)
	}
	if err := c.Remove("alice", &fresh); err != nil {
		t.Fatal(err)
	}
	if p, _, _ := c.Pairing("alice"); p != "none" {
		t.Fatalf("pairing = %q after removing it", p)
	}
}

// TestAdminClientRemoveLegacyPairing: a record written before pairing IDs
// has no pairing_id, so the portal names its pairing as 0. A remove that
// names 0 removes it, and after an unpair and a re-pair the same stale 0
// is a 409 that leaves the new pairing.
func TestAdminClientRemoveLegacyPairing(t *testing.T) {
	s, _, _, c := clientWorld(t)
	if _, err := s.InitSoftToken("alice"); err != nil {
		t.Fatal(err)
	}
	r, err := s.loadRecord("alice")
	if err != nil {
		t.Fatal(err)
	}
	r.PairingID = 0 // saved without pairing_id, as before pairing IDs
	if err := s.saveRecord(r); err != nil {
		t.Fatal(err)
	}
	p, stale, err := c.Pairing("alice")
	if err != nil || p != "soft" || stale != 0 {
		t.Fatalf("legacy pairing: %q %d, %v", p, stale, err)
	}
	if err := c.Remove("alice", &stale); err != nil {
		t.Fatalf("remove naming the legacy pairing: %v", err)
	}
	if _, err := s.InitSoftToken("alice"); err != nil {
		t.Fatal(err)
	}
	_, fresh, _ := c.Pairing("alice")
	var apiErr *APIError
	if err := c.Remove("alice", &stale); !errors.As(err, &apiErr) || apiErr.Status != 409 {
		t.Fatalf("remove with the stale legacy ID: %v, want a 409", err)
	}
	if p, id, err := c.Pairing("alice"); err != nil || p != "soft" || id != fresh {
		t.Fatalf("after the stale remove: %q %d, %v; want soft %d", p, id, err, fresh)
	}
}

// TestAdminClientShowEscapesUser: a user name holding query syntax reads
// that user's token, not another's.
func TestAdminClientShowEscapesUser(t *testing.T) {
	s, _, _, c := clientWorld(t)
	if _, err := s.InitSoftToken("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.InitSMSToken("a&user=b#c", "+15125550100"); err != nil {
		t.Fatal(err)
	}
	info, err := c.Show("a&user=b#c")
	if err != nil || info.User != "a&user=b#c" || info.Type != TokenSMS {
		t.Fatalf("Show = %+v, %v", info, err)
	}
}

func TestAdminClientSMSAndTrigger(t *testing.T) {
	_, sms, sim, c := clientWorld(t)
	if _, err := c.Init("storm", TokenSMS, "5125551234", ""); err != nil {
		t.Fatal(err)
	}
	sent, msg, err := c.TriggerSMS("storm")
	if err != nil || !sent {
		t.Fatalf("TriggerSMS = %v %q %v", sent, msg, err)
	}
	if sms.count() != 1 {
		t.Fatalf("sms count = %d", sms.count())
	}
	// Second trigger suppressed while the code is active.
	sent, msg, err = c.TriggerSMS("storm")
	if err != nil || sent || msg == "" {
		t.Fatalf("second TriggerSMS = %v %q %v", sent, msg, err)
	}
	_ = sim
}

func TestAdminClientResyncResetLockedOut(t *testing.T) {
	s, _, sim, c := clientWorld(t)
	enr, err := c.Init("bob", TokenSoft, "", "")
	if err != nil {
		t.Fatal(err)
	}
	secret, _ := enr.SecretBytes()

	// Drift the device 15 minutes and resync through the client.
	dev := sim.Now().Add(15 * time.Minute)
	c1, _ := otp.TOTP(secret, dev, s.OTPOptions())
	c2, _ := otp.TOTP(secret, dev.Add(30*time.Second), s.OTPOptions())
	if err := c.Resync("bob", c1, c2); err != nil {
		t.Fatal(err)
	}

	// Lock the account out, observe it via LockedOut, clear with Reset.
	for i := 0; i < DefaultLockoutThreshold; i++ {
		s.Check("bob", "000000")
	}
	locked, err := c.LockedOut()
	if err != nil || len(locked) != 1 || locked[0] != "bob" {
		t.Fatalf("LockedOut = %v, %v", locked, err)
	}
	if err := c.Reset("bob"); err != nil {
		t.Fatal(err)
	}
	locked, _ = c.LockedOut()
	if len(locked) != 0 {
		t.Fatalf("still locked after reset: %v", locked)
	}
}

func TestAdminClientStatic(t *testing.T) {
	_, _, _, c := clientWorld(t)
	if err := c.SetStatic("train01", "123456"); err != nil {
		t.Fatal(err)
	}
	ok, _, err := c.Validate("train01", "123456")
	if err != nil || !ok {
		t.Fatalf("static validate = %v, %v", ok, err)
	}
	// Bad code format surfaces the 400.
	err = c.SetStatic("train02", "12")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 400 {
		t.Fatalf("bad static err = %v", err)
	}
}

func TestAdminClientHardToken(t *testing.T) {
	s, _, sim, c := clientWorld(t)
	fob := []byte("fob-secret-4242-----")
	s.ImportHardToken("C200-4242", fob)
	enr, err := c.Init("hanlon", TokenHard, "", "C200-4242")
	if err != nil {
		t.Fatal(err)
	}
	if enr.Serial != "C200-4242" {
		t.Fatalf("serial = %q", enr.Serial)
	}
	code, _ := otp.TOTP(fob, sim.Now(), s.OTPOptions())
	if ok, _, _ := c.Validate("hanlon", code); !ok {
		t.Fatal("hard token code rejected via client")
	}
}

func TestAdminClientBadCredentials(t *testing.T) {
	_, _, _, good := clientWorld(t)
	bad := &AdminClient{BaseURL: good.BaseURL, Username: "portal", Password: "wrong"}
	_, err := bad.Show("anyone")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 401 {
		t.Fatalf("bad creds err = %v", err)
	}
}

func TestAdminClientDeadServer(t *testing.T) {
	c := &AdminClient{BaseURL: "http://127.0.0.1:1", Username: "u", Password: "p"}
	if _, err := c.Show("x"); err == nil {
		t.Fatal("dead server Show succeeded")
	}
	if _, _, err := c.Validate("x", "1"); err == nil {
		t.Fatal("dead server Validate succeeded")
	}
}

func TestAuditMarshalJSON(t *testing.T) {
	sim := clock.NewSim(t0)
	s, _ := newServer(t, sim)
	s.InitSoftToken("u")
	b, err := s.Audit().MarshalJSON()
	if err != nil || len(b) < 10 {
		t.Fatalf("MarshalJSON = %d bytes, %v", len(b), err)
	}
}

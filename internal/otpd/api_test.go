package otpd

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"openmfa/internal/clock"
	"openmfa/internal/eventstream"
	"openmfa/internal/httpdigest"
	"openmfa/internal/otp"
	"openmfa/internal/radius"
	"openmfa/internal/store"
)

// --- RADIUS handler ---

func radiusPair(t *testing.T) (*Server, *capturedSMS, *clock.Sim, string, []byte) {
	t.Helper()
	sim := clock.NewSim(t0)
	s, sms := newServer(t, sim)
	secret := []byte("radius-secret")
	srv := &radius.Server{Secret: secret, Handler: &RadiusHandler{OTP: s}}
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return s, sms, sim, srv.Addr().String(), secret
}

func radiusAsk(t *testing.T, addr string, secret []byte, user, code string) *radius.Packet {
	t.Helper()
	return radiusAskTraced(t, addr, secret, user, code, "")
}

// radiusAskTraced is radiusAsk from a NAS that puts a trace ID, when it
// has one, in Proxy-State.
func radiusAskTraced(t *testing.T, addr string, secret []byte, user, code, trace string) *radius.Packet {
	t.Helper()
	c := &radius.Client{Addr: addr, Secret: secret, Timeout: 2 * time.Second}
	req := radius.NewRequest(0)
	req.AddString(radius.AttrUserName, user)
	hidden, err := radius.HidePassword(code, secret, req.Authenticator)
	if err != nil {
		t.Fatal(err)
	}
	req.Add(radius.AttrUserPassword, hidden)
	if trace != "" {
		req.AddString(radius.AttrProxyState, trace)
	}
	resp, err := c.Exchange(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestRadiusAcceptRejectFlow(t *testing.T) {
	s, _, sim, addr, secret := radiusPair(t)
	enr, _ := s.InitSoftToken("u")
	code, _ := otp.TOTP(enr.Secret, sim.Now(), s.OTPOptions())

	if resp := radiusAsk(t, addr, secret, "u", code); resp.Code != radius.AccessAccept {
		t.Fatalf("valid code → %v", resp.Code)
	}
	// Replay → reject.
	if resp := radiusAsk(t, addr, secret, "u", code); resp.Code != radius.AccessReject {
		t.Fatalf("replayed code → %v", resp.Code)
	}
	if resp := radiusAsk(t, addr, secret, "u", "000000"); resp.Code != radius.AccessReject {
		t.Fatalf("wrong code → %v", resp.Code)
	}
	if resp := radiusAsk(t, addr, secret, "ghost", "123456"); resp.Code != radius.AccessReject {
		t.Fatalf("unknown user → %v", resp.Code)
	}
	// Missing user name → reject.
	c := &radius.Client{Addr: addr, Secret: secret, Timeout: 2 * time.Second}
	req := radius.NewRequest(0)
	resp, err := c.Exchange(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Code != radius.AccessReject {
		t.Fatalf("empty request → %v", resp.Code)
	}
}

// TestFarmFailoverAcceptsCodeOnce: two farm members front one otpd, and
// member a answers past the pool's per-attempt budget, so the pool fails
// over to b with the same code. Stalled before its check, a leaves the
// code to b, which accepts it; stalled after (a slow fsync: check writes
// the consumed code before it answers), a has consumed it and b rejects
// the replay, so a correct code fails the login. Either way otpd accepts
// the code once, and the exchange ends without waiting for a.
func TestFarmFailoverAcceptsCodeOnce(t *testing.T) {
	const perTry, stall = 100 * time.Millisecond, 500 * time.Millisecond
	for _, tc := range []struct {
		name        string
		stallBefore bool
		want        radius.Code
	}{
		{"stall before check", true, radius.AccessAccept},
		{"stall after check", false, radius.AccessReject},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := clock.NewSim(t0)
			s, _ := newServer(t, sim)
			enr, _ := s.InitSoftToken("u")
			code, _ := otp.TOTP(enr.Secret, sim.Now(), s.OTPOptions())
			secret := []byte("radius-secret")

			var accepts atomic.Int32
			otpHandler := &RadiusHandler{OTP: s}
			counted := func(reply *radius.Packet, req *radius.Request) bool {
				ok := otpHandler.ServeRADIUS(reply, req)
				if reply.Code == radius.AccessAccept {
					accepts.Add(1)
				}
				return ok
			}
			slow := radius.HandlerFunc(func(reply *radius.Packet, req *radius.Request) bool {
				if tc.stallBefore {
					time.Sleep(stall)
				}
				ok := counted(reply, req)
				if !tc.stallBefore {
					time.Sleep(stall)
				}
				return ok
			})
			a := &radius.Server{Secret: secret, Handler: slow}
			b := &radius.Server{Secret: secret, Handler: radius.HandlerFunc(counted)}
			for _, srv := range []*radius.Server{a, b} {
				if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
					t.Fatal(err)
				}
				defer srv.Close()
			}
			// One retransmission per member, as core deploys the pool.
			pool := radius.NewPool([]string{a.Addr().String(), b.Addr().String()}, secret, perTry, 1)
			defer pool.Close()

			start := time.Now()
			resp, err := pool.Exchange(func(req *radius.Packet) {
				req.AddString(radius.AttrUserName, "u")
				hidden, _ := radius.HidePassword(code, secret, req.Authenticator) // 6 digits always fit
				req.Add(radius.AttrUserPassword, hidden)
			})
			took := time.Since(start)
			if err != nil {
				t.Fatalf("exchange: %v", err)
			}
			if resp.Code != tc.want {
				t.Errorf("b answered %v, want %v", resp.Code, tc.want)
			}
			if took >= stall {
				t.Errorf("exchange took %v, waited for the stalled member", took)
			}
			a.Close() // waits for a's late handler
			if n := accepts.Load(); n != 1 {
				t.Errorf("otpd accepted the code %d times across the failover, want 1", n)
			}
		})
	}
}

func TestRadiusSMSChallenge(t *testing.T) {
	s, sms, sim, addr, secret := radiusPair(t)
	enr, _ := s.InitSMSToken("storm", "5125551234")

	// Null request triggers the SMS and a challenge.
	resp := radiusAsk(t, addr, secret, "storm", "")
	if resp.Code != radius.AccessChallenge {
		t.Fatalf("null request → %v", resp.Code)
	}
	if sms.count() != 1 {
		t.Fatalf("sms count = %d", sms.count())
	}
	if st, ok := resp.Get(radius.AttrState); !ok || len(st) == 0 {
		t.Fatal("challenge missing State")
	}
	// Second null request while active: challenge again with the
	// already-sent message, no second text.
	resp2 := radiusAsk(t, addr, secret, "storm", "")
	if resp2.Code != radius.AccessChallenge {
		t.Fatalf("repeat null → %v", resp2.Code)
	}
	if sms.count() != 1 {
		t.Fatal("duplicate SMS sent")
	}
	if got := resp2.GetString(radius.AttrReplyMessage); got == resp.GetString(radius.AttrReplyMessage) {
		t.Fatalf("expected already-sent notice, got %q twice", got)
	}
	// Complete with the code.
	code, _ := otp.TOTP(enr.Secret, sim.Now(), s.OTPOptions())
	if r := radiusAsk(t, addr, secret, "storm", code); r.Code != radius.AccessAccept {
		t.Fatalf("code after challenge → %v", r.Code)
	}
}

func TestRadiusNullForNonSMSUserChallengesForCode(t *testing.T) {
	s, _, _, addr, secret := radiusPair(t)
	s.InitSoftToken("softie")
	resp := radiusAsk(t, addr, secret, "softie", "")
	if resp.Code != radius.AccessChallenge {
		t.Fatalf("null for soft user → %v", resp.Code)
	}
}

func TestRadiusLockedOutReject(t *testing.T) {
	s, _, _, addr, secret := radiusPair(t)
	s.InitSMSToken("u", "5125551234")
	for i := 0; i < DefaultLockoutThreshold; i++ {
		s.Check("u", "000000")
	}
	if resp := radiusAsk(t, addr, secret, "u", "111111"); resp.Code != radius.AccessReject {
		t.Fatalf("locked out check → %v", resp.Code)
	}
	if resp := radiusAsk(t, addr, secret, "u", ""); resp.Code != radius.AccessReject {
		t.Fatalf("locked out trigger → %v", resp.Code)
	}
}

// TestRadiusEventsCarryNASTrace: a lockout and an SMS send reached through
// the RADIUS hop publish their events under the trace ID the NAS put in
// Proxy-State, so the back end's events join the login's trace.
func TestRadiusEventsCarryNASTrace(t *testing.T) {
	sim := clock.NewSim(t0)
	bus := eventstream.NewBus(nil)
	s, err := New(Config{
		DB:            store.OpenMemory(),
		EncryptionKey: bytes.Repeat([]byte{0x42}, 32),
		Clock:         sim,
		SMS:           &capturedSMS{},
		Events:        bus,
	})
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("radius-secret")
	srv := &radius.Server{Secret: secret, Handler: &RadiusHandler{OTP: s}}
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	if _, err := s.InitSoftToken("locked"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.InitSMSToken("texted", "5125551234"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < DefaultLockoutThreshold-1; i++ {
		s.Check("locked", "000000")
	}
	sub := bus.Subscribe(16)
	defer sub.Close()

	next := func(want eventstream.Type) eventstream.Event {
		t.Helper()
		select {
		case e := <-sub.Events():
			if e.Type != want {
				t.Fatalf("event %+v, want type %s", e, want)
			}
			return e
		default:
			t.Fatalf("no %s event published", want)
			return eventstream.Event{}
		}
	}

	const lockTrace, smsTrace = "0123456789abcdef", "fedcba9876543210"
	addr := srv.Addr().String()
	if resp := radiusAskTraced(t, addr, secret, "locked", "000000", lockTrace); resp.Code != radius.AccessReject {
		t.Fatalf("threshold failure → %v", resp.Code)
	}
	if e := next(eventstream.TypeLockout); e.Trace != lockTrace || e.User != "locked" {
		t.Fatalf("lockout event %+v, want trace %s", e, lockTrace)
	}
	if resp := radiusAskTraced(t, addr, secret, "texted", "", smsTrace); resp.Code != radius.AccessChallenge {
		t.Fatalf("null request → %v", resp.Code)
	}
	if e := next(eventstream.TypeSMS); e.Trace != smsTrace || e.User != "texted" {
		t.Fatalf("sms event %+v, want trace %s", e, smsTrace)
	}
}

// --- Admin REST API ---

func apiServer(t *testing.T) (*Server, *clock.Sim, *httptest.Server, *http.Client) {
	t.Helper()
	sim := clock.NewSim(t0)
	s, _ := newServer(t, sim)
	api := &AdminAPI{
		OTP:   s,
		Realm: "otpd-admin",
		Creds: httpdigest.StaticCredentials{
			"portal": httpdigest.HA1("portal", "otpd-admin", "hunter2"),
		},
	}
	srv := httptest.NewServer(api.Handler())
	t.Cleanup(srv.Close)
	client := &http.Client{Transport: &httpdigest.Client{Username: "portal", Password: "hunter2"}}
	return s, sim, srv, client
}

func postJSON(t *testing.T, c *http.Client, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	b, _ := json.Marshal(body)
	resp, err := c.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out)
	return resp, out
}

func TestAdminAPIInitShowRemove(t *testing.T) {
	s, _, srv, client := apiServer(t)

	resp, body := postJSON(t, client, srv.URL+"/admin/init",
		initReq{User: "alice", Type: TokenSoft})
	if resp.StatusCode != 200 {
		t.Fatalf("init status = %d (%v)", resp.StatusCode, body)
	}
	if body["secret"] == "" || body["uri"] == "" {
		t.Fatalf("init response = %v", body)
	}
	if !hasToken(s, "alice") {
		t.Fatal("token not created")
	}

	// Show.
	r2, err := client.Get(srv.URL + "/admin/show?user=alice")
	if err != nil {
		t.Fatal(err)
	}
	var info TokenInfo
	json.NewDecoder(r2.Body).Decode(&info)
	r2.Body.Close()
	if info.Type != TokenSoft || !info.Active || !info.Provisional {
		t.Fatalf("show = %+v", info)
	}

	// A second init replaces the provisional token; once a code has
	// confirmed the token, a duplicate init → 409.
	resp, _ = postJSON(t, client, srv.URL+"/admin/init", initReq{User: "alice", Type: TokenSoft})
	if resp.StatusCode != 200 {
		t.Fatalf("init over a provisional token: status = %d", resp.StatusCode)
	}
	if res, err := s.Check("alice", currentCode(t, s, "alice")); err != nil || !res.OK {
		t.Fatalf("confirming check: %+v, %v", res, err)
	}
	resp, _ = postJSON(t, client, srv.URL+"/admin/init", initReq{User: "alice", Type: TokenSoft})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate init status = %d", resp.StatusCode)
	}

	// Remove.
	resp, _ = postJSON(t, client, srv.URL+"/admin/remove", userReq{User: "alice"})
	if resp.StatusCode != 200 {
		t.Fatalf("remove status = %d", resp.StatusCode)
	}
	if hasToken(s, "alice") {
		t.Fatal("token survived remove")
	}
	// Remove again → 404.
	resp, _ = postJSON(t, client, srv.URL+"/admin/remove", userReq{User: "alice"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("re-remove status = %d", resp.StatusCode)
	}
}

func TestAdminAPIRequiresDigestAuth(t *testing.T) {
	_, _, srv, _ := apiServer(t)
	resp, err := http.Get(srv.URL + "/admin/tokens")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated admin status = %d", resp.StatusCode)
	}
	bad := &http.Client{Transport: &httpdigest.Client{Username: "portal", Password: "wrong"}}
	resp2, err := bad.Get(srv.URL + "/admin/tokens")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusUnauthorized {
		t.Fatalf("wrong password status = %d", resp2.StatusCode)
	}
}

func TestAdminAPIBadType(t *testing.T) {
	_, _, srv, client := apiServer(t)
	resp, _ := postJSON(t, client, srv.URL+"/admin/init", initReq{User: "x", Type: "yubikey"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad type status = %d", resp.StatusCode)
	}
	// Malformed JSON.
	r, err := client.Post(srv.URL+"/admin/init", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON status = %d", r.StatusCode)
	}
}

func TestAdminAPIStaticResetAuditLockedout(t *testing.T) {
	s, sim, srv, client := apiServer(t)
	resp, _ := postJSON(t, client, srv.URL+"/admin/static", userReq{User: "train01", Code: "123456"})
	if resp.StatusCode != 200 {
		t.Fatalf("static status = %d", resp.StatusCode)
	}
	if res, _ := s.Check("train01", "123456"); !res.OK {
		t.Fatal("static code not set")
	}
	_ = sim

	// Lock out and verify /admin/lockedout, then /admin/reset.
	for i := 0; i < DefaultLockoutThreshold; i++ {
		s.Check("train01", "999999")
	}
	r, err := client.Get(srv.URL + "/admin/lockedout")
	if err != nil {
		t.Fatal(err)
	}
	var locked []string
	json.NewDecoder(r.Body).Decode(&locked)
	r.Body.Close()
	if len(locked) != 1 || locked[0] != "train01" {
		t.Fatalf("lockedout = %v", locked)
	}
	resp, _ = postJSON(t, client, srv.URL+"/admin/reset", userReq{User: "train01"})
	if resp.StatusCode != 200 {
		t.Fatalf("reset status = %d", resp.StatusCode)
	}
	if res, _ := s.Check("train01", "123456"); !res.OK {
		t.Fatal("reset did not restore token")
	}

	// Audit is reachable and chained.
	r2, err := client.Get(srv.URL + "/admin/audit")
	if err != nil {
		t.Fatal(err)
	}
	var entries []AuditEntry
	json.NewDecoder(r2.Body).Decode(&entries)
	r2.Body.Close()
	if len(entries) == 0 {
		t.Fatal("empty audit trail")
	}
}

func TestValidateEndpointOpen(t *testing.T) {
	s, sim, srv, _ := apiServer(t)
	enr, _ := s.InitSoftToken("u")
	code, _ := otp.TOTP(enr.Secret, sim.Now(), s.OTPOptions())
	// No digest auth needed for /validate/check.
	b, _ := json.Marshal(userReq{User: "u", Pass: code})
	resp, err := http.Post(srv.URL+"/validate/check", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if out["value"] != true {
		t.Fatalf("validate = %v", out)
	}
	// Unknown user → value=false, not an HTTP error.
	b2, _ := json.Marshal(userReq{User: "ghost", Pass: "123456"})
	resp2, err := http.Post(srv.URL+"/validate/check", "application/json", bytes.NewReader(b2))
	if err != nil {
		t.Fatal(err)
	}
	var out2 map[string]any
	json.NewDecoder(resp2.Body).Decode(&out2)
	resp2.Body.Close()
	if resp2.StatusCode != 200 || out2["value"] != false {
		t.Fatalf("validate unknown = %d %v", resp2.StatusCode, out2)
	}
}

func TestAdminAPIHardTokenFlow(t *testing.T) {
	s, sim, srv, client := apiServer(t)
	secret := []byte("fob-secret-0002-----")
	s.ImportHardToken("C200-0002", secret)
	resp, body := postJSON(t, client, srv.URL+"/admin/init",
		initReq{User: "hanlon", Type: TokenHard, Serial: "C200-0002"})
	if resp.StatusCode != 200 {
		t.Fatalf("hard init = %d %v", resp.StatusCode, body)
	}
	code, _ := otp.TOTP(secret, sim.Now(), s.OTPOptions())
	if res, _ := s.Check("hanlon", code); !res.OK {
		t.Fatal("hard token unusable after REST assignment")
	}
	// Unknown serial → 404.
	resp, _ = postJSON(t, client, srv.URL+"/admin/init",
		initReq{User: "other", Type: TokenHard, Serial: "NOPE"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown serial status = %d", resp.StatusCode)
	}
}

func TestAdminAPIResync(t *testing.T) {
	s, sim, srv, client := apiServer(t)
	enr, _ := s.InitSoftToken("u")
	dev := sim.Now().Add(15 * time.Minute)
	c1, _ := otp.TOTP(enr.Secret, dev, s.OTPOptions())
	c2, _ := otp.TOTP(enr.Secret, dev.Add(30*time.Second), s.OTPOptions())
	resp, _ := postJSON(t, client, srv.URL+"/admin/resync", userReq{User: "u", OTP1: c1, OTP2: c2})
	if resp.StatusCode != 200 {
		t.Fatalf("resync status = %d", resp.StatusCode)
	}
}

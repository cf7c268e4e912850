package portal

import (
	"bytes"
	"io"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"net/url"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"openmfa/internal/authwatch"
	"openmfa/internal/clock"
	"openmfa/internal/eventstream"
	"openmfa/internal/httpdigest"
	"openmfa/internal/idm"
	"openmfa/internal/otp"
	"openmfa/internal/otpd"
	"openmfa/internal/store"
)

var t0 = time.Date(2016, 8, 15, 10, 0, 0, 0, time.UTC)

type world struct {
	sim    *clock.Sim
	idm    *idm.IDM
	otp    *otpd.Server
	portal *httptest.Server
	sms    *smsCap
	email  *emailCap
	bus    *eventstream.Bus
}

type smsCap struct {
	mu   sync.Mutex
	msgs []string
}

func (s *smsCap) SendSMS(phone, body string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.msgs = append(s.msgs, body)
	return nil
}

func (s *smsCap) lastCode() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.msgs) == 0 {
		return ""
	}
	f := strings.Fields(s.msgs[len(s.msgs)-1])
	return f[len(f)-1]
}

func (s *smsCap) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.msgs)
}

type emailCap struct {
	mu     sync.Mutex
	to     []string
	bodies []string
}

func (e *emailCap) SendEmail(to, subject, body string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.to = append(e.to, to)
	e.bodies = append(e.bodies, body)
	return nil
}

func (e *emailCap) lastBody() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.bodies) == 0 {
		return ""
	}
	return e.bodies[len(e.bodies)-1]
}

func newWorld(t testing.TB) *world {
	t.Helper()
	sim := clock.NewSim(t0)
	w := &world{sim: sim, sms: &smsCap{}, email: &emailCap{}, bus: eventstream.NewBus(nil)}
	w.idm = idm.New(store.OpenMemory(), sim)
	var err error
	w.otp, err = otpd.New(otpd.Config{
		DB:            store.OpenMemory(),
		EncryptionKey: bytes.Repeat([]byte{5}, 32),
		Clock:         sim,
		SMS:           w.sms,
		Issuer:        "TACC",
	})
	if err != nil {
		t.Fatal(err)
	}
	api := &otpd.AdminAPI{
		OTP:   w.otp,
		Realm: "otpd-admin",
		Creds: httpdigest.StaticCredentials{"portal": httpdigest.HA1("portal", "otpd-admin", "pw")},
	}
	otpSrv := httptest.NewServer(api.Handler())
	t.Cleanup(otpSrv.Close)

	p, err := New(Config{
		IDM:        w.idm,
		Admin:      &otpd.AdminClient{BaseURL: otpSrv.URL, Username: "portal", Password: "pw"},
		Email:      w.email,
		Clock:      sim,
		SessionKey: []byte("portal-session-key"),
		BaseURL:    "https://portal.hpc.example",
		Events:     w.bus,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.portal = httptest.NewServer(p.Handler())
	t.Cleanup(w.portal.Close)
	return w
}

func (w *world) addUser(t testing.TB, user, pw string) {
	t.Helper()
	if _, err := w.idm.Create(user, user+"@hpc.example", pw, idm.ClassUser); err != nil {
		t.Fatal(err)
	}
}

// hasToken reports whether user has a token, provisional or confirmed.
func (w *world) hasToken(user string) bool {
	_, err := w.otp.Token(user)
	return err == nil
}

// browser is an http client with a cookie jar (a user's web browser).
func browser(t testing.TB) *http.Client {
	t.Helper()
	jar, err := cookiejar.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	return &http.Client{Jar: jar, CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse // inspect redirects explicitly
	}}
}

func post(t testing.TB, c *http.Client, urlStr string, form url.Values) (*http.Response, string) {
	t.Helper()
	resp, err := c.PostForm(urlStr, form)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp, string(b)
}

func get(t testing.TB, c *http.Client, urlStr string) (*http.Response, string) {
	t.Helper()
	resp, err := c.Get(urlStr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp, string(b)
}

func login(t testing.TB, w *world, c *http.Client, user, pw string) *http.Response {
	t.Helper()
	resp, _ := post(t, c, w.portal.URL+"/login", url.Values{"username": {user}, "password": {pw}})
	return resp
}

var stateRe = regexp.MustCompile(`state: (\S+)`)
var uriRe = regexp.MustCompile(`QR payload: (\S+)`)

func TestLoginAndSplashInterstitial(t *testing.T) {
	w := newWorld(t)
	w.addUser(t, "alice", "pw")
	c := browser(t)
	// Unpaired user is redirected to the splash on login.
	resp := login(t, w, c, "alice", "pw")
	if resp.StatusCode != http.StatusSeeOther || resp.Header.Get("Location") != "/splash" {
		t.Fatalf("login redirect = %d %q", resp.StatusCode, resp.Header.Get("Location"))
	}
	_, body := get(t, c, w.portal.URL+"/splash")
	if !strings.Contains(body, "Multi-factor authentication is required") {
		t.Fatalf("splash body = %q", body)
	}
	// Dismiss → home still reachable.
	_, body = get(t, c, w.portal.URL+"/home")
	if !strings.Contains(body, "pairing: none") {
		t.Fatalf("home body = %q", body)
	}
	// Re-login: prompted again (redirect to splash once more).
	resp = login(t, w, c, "alice", "pw")
	if resp.Header.Get("Location") != "/splash" {
		t.Fatal("second login not re-prompted")
	}
}

func TestLoginFailures(t *testing.T) {
	w := newWorld(t)
	w.addUser(t, "alice", "pw")
	c := browser(t)
	resp := login(t, w, c, "alice", "wrong")
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("bad pw status = %d", resp.StatusCode)
	}
	// No session cookie: protected pages 401.
	resp2, _ := get(t, c, w.portal.URL+"/home")
	if resp2.StatusCode != http.StatusUnauthorized {
		t.Fatalf("home without session = %d", resp2.StatusCode)
	}
}

func TestSoftPairingFlow(t *testing.T) {
	w := newWorld(t)
	w.addUser(t, "alice", "pw")
	c := browser(t)
	login(t, w, c, "alice", "pw")

	resp, body := post(t, c, w.portal.URL+"/pair/start", url.Values{"type": {"soft"}})
	if resp.StatusCode != 200 {
		t.Fatalf("pair start = %d %q", resp.StatusCode, body)
	}
	state := stateRe.FindStringSubmatch(body)
	uri := uriRe.FindStringSubmatch(body)
	if state == nil || uri == nil {
		t.Fatalf("missing state/uri in %q", body)
	}
	// "After scanning the QR code, the mobile application immediately
	// presents the user with a six-digit token code."
	key, err := otp.ParseURI(uri[1])
	if err != nil {
		t.Fatal(err)
	}
	code, _ := otp.TOTP(key.Secret, w.sim.Now(), key.Options)
	resp, body = post(t, c, w.portal.URL+"/pair/confirm",
		url.Values{"state": {state[1]}, "code": {code}})
	if resp.StatusCode != 200 || !strings.Contains(body, "paired: soft") {
		t.Fatalf("confirm = %d %q", resp.StatusCode, body)
	}
	// The token module's pairing query reads the confirmed token.
	if p, _ := w.otp.Pairing("alice"); p != "soft" {
		t.Fatalf("pairing = %v", p)
	}
	// Next login goes straight home.
	resp = login(t, w, c, "alice", "pw")
	if resp.Header.Get("Location") != "/home" {
		t.Fatal("paired user still sent to splash")
	}
}

func TestSMSPairingFlow(t *testing.T) {
	w := newWorld(t)
	w.addUser(t, "storm", "pw")
	c := browser(t)
	login(t, w, c, "storm", "pw")

	// Invalid phone rejected.
	resp, _ := post(t, c, w.portal.URL+"/pair/start",
		url.Values{"type": {"sms"}, "phone": {"banana"}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad phone status = %d", resp.StatusCode)
	}

	resp, body := post(t, c, w.portal.URL+"/pair/start",
		url.Values{"type": {"sms"}, "phone": {"5125551234"}})
	if resp.StatusCode != 200 {
		t.Fatalf("sms start = %d %q", resp.StatusCode, body)
	}
	if w.sms.count() != 1 {
		t.Fatalf("sms count = %d", w.sms.count())
	}
	state := stateRe.FindStringSubmatch(body)
	resp, body = post(t, c, w.portal.URL+"/pair/confirm",
		url.Values{"state": {state[1]}, "code": {w.sms.lastCode()}})
	if resp.StatusCode != 200 || !strings.Contains(body, "paired: sms") {
		t.Fatalf("confirm = %d %q", resp.StatusCode, body)
	}
	if p, _ := w.otp.Pairing("storm"); p != "sms" {
		t.Fatalf("pairing = %v", p)
	}
}

func TestHardPairingFlow(t *testing.T) {
	w := newWorld(t)
	w.addUser(t, "hanlon", "pw")
	secret := []byte("fob-secret-0001-----")
	w.otp.ImportHardToken("C200-0001", secret)
	c := browser(t)
	login(t, w, c, "hanlon", "pw")

	resp, body := post(t, c, w.portal.URL+"/pair/start",
		url.Values{"type": {"hard"}, "serial": {"C200-0001"}})
	if resp.StatusCode != 200 {
		t.Fatalf("hard start = %d %q", resp.StatusCode, body)
	}
	state := stateRe.FindStringSubmatch(body)
	// "the user is then prompted to enter the current token code ...
	// This ensures that the hard token device is working properly after
	// shipment."
	code, _ := otp.TOTP(secret, w.sim.Now(), w.otp.OTPOptions())
	resp, body = post(t, c, w.portal.URL+"/pair/confirm",
		url.Values{"state": {state[1]}, "code": {code}})
	if resp.StatusCode != 200 || !strings.Contains(body, "paired: hard") {
		t.Fatalf("confirm = %d %q", resp.StatusCode, body)
	}
	// Unknown serial fails.
	c2 := browser(t)
	w.addUser(t, "other", "pw")
	login(t, w, c2, "other", "pw")
	resp, _ = post(t, c2, w.portal.URL+"/pair/start",
		url.Values{"type": {"hard"}, "serial": {"BOGUS"}})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("bogus serial status = %d", resp.StatusCode)
	}
}

func TestPairingAbortOnRefresh(t *testing.T) {
	w := newWorld(t)
	w.addUser(t, "alice", "pw")
	c := browser(t)
	login(t, w, c, "alice", "pw")

	_, body := post(t, c, w.portal.URL+"/pair/start", url.Values{"type": {"soft"}})
	state := stateRe.FindStringSubmatch(body)
	uri := uriRe.FindStringSubmatch(body)

	// "If a user refreshes in the middle of the process ... the process
	// is aborted": GET /pair kills the pending state and the token.
	get(t, c, w.portal.URL+"/pair")
	if w.hasToken("alice") {
		t.Fatal("provisional token survived the refresh")
	}
	// The old form (back button) is now stale.
	key, _ := otp.ParseURI(uri[1])
	code, _ := otp.TOTP(key.Secret, w.sim.Now(), key.Options)
	resp, _ := post(t, c, w.portal.URL+"/pair/confirm",
		url.Values{"state": {state[1]}, "code": {code}})
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("stale confirm status = %d", resp.StatusCode)
	}
}

// TestLogoutMidPairingLetsUserRestart: a pairing left half done by a
// logout, or by a session that expired, does not strand the user. The
// provisional token reads as no pairing, and a fresh start replaces it.
func TestLogoutMidPairingLetsUserRestart(t *testing.T) {
	w := newWorld(t)
	w.addUser(t, "alice", "pw")
	c := browser(t)
	for _, leave := range []string{"expiry", "logout"} {
		login(t, w, c, "alice", "pw")
		if resp, body := post(t, c, w.portal.URL+"/pair/start", url.Values{"type": {"soft"}}); resp.StatusCode != 200 {
			t.Fatalf("%s: first start = %d %q", leave, resp.StatusCode, body)
		}
		if leave == "logout" {
			post(t, c, w.portal.URL+"/logout", nil)
			if w.hasToken("alice") {
				t.Fatal("logout left the provisional token behind")
			}
		} else {
			w.sim.Advance(13 * time.Hour) // past the session TTL
		}
		login(t, w, c, "alice", "pw")
		if _, body := get(t, c, w.portal.URL+"/home"); !strings.Contains(body, "pairing: none") {
			t.Fatalf("%s: home = %q", leave, body)
		}
		if resp, body := post(t, c, w.portal.URL+"/pair/start", url.Values{"type": {"soft"}}); resp.StatusCode != 200 {
			t.Fatalf("%s: restart = %d %q, want 200", leave, resp.StatusCode, body)
		}
		post(t, c, w.portal.URL+"/logout", nil)
	}
	login(t, w, c, "alice", "pw")
	pairSoft(t, w, c)
	if p, _ := w.otp.Pairing("alice"); p != "soft" {
		t.Fatalf("pairing after restart = %q", p)
	}
}

// TestAbortSparesAnotherSessionsPairing: a session aborts only the
// provisional token it enrolled. Session A starts a pairing; session B
// starts its own, which replaces A's token, and confirms it. A's logout,
// refresh or restart then leaves B's pairing in place, so the user is not
// silently unpaired without a code.
func TestAbortSparesAnotherSessionsPairing(t *testing.T) {
	for _, leave := range []string{"logout", "refresh", "restart"} {
		w := newWorld(t)
		w.addUser(t, "alice", "pw")
		a, b := browser(t), browser(t)
		login(t, w, a, "alice", "pw")
		login(t, w, b, "alice", "pw")
		if resp, body := post(t, a, w.portal.URL+"/pair/start", url.Values{"type": {"soft"}}); resp.StatusCode != 200 {
			t.Fatalf("%s: A start = %d %q", leave, resp.StatusCode, body)
		}
		pairSoft(t, w, b)
		switch leave {
		case "logout":
			post(t, a, w.portal.URL+"/logout", nil)
		case "refresh":
			get(t, a, w.portal.URL+"/pair")
		case "restart":
			if resp, _ := post(t, a, w.portal.URL+"/pair/start", url.Values{"type": {"soft"}}); resp.StatusCode != http.StatusConflict {
				t.Fatalf("%s: A restart over B's pairing = %d, want 409", leave, resp.StatusCode)
			}
		}
		if p, err := w.otp.Pairing("alice"); err != nil || p != "soft" {
			t.Fatalf("%s: B's pairing after A left = %q, %v; want soft", leave, p, err)
		}
	}
}

// TestRefreshMidHardPairingKeepsFob: a refresh that aborts a hard-token
// pairing puts the fob back into inventory, so the user can start again
// with the same serial. A fob whose pairing was confirmed stays out of
// inventory when support removes it, since it may be lost.
func TestRefreshMidHardPairingKeepsFob(t *testing.T) {
	w := newWorld(t)
	w.addUser(t, "hanlon", "pw")
	secret := []byte("fob-secret-0001-----")
	w.otp.ImportHardToken("C200-0001", secret)
	c := browser(t)
	login(t, w, c, "hanlon", "pw")
	start := url.Values{"type": {"hard"}, "serial": {"C200-0001"}}
	if resp, body := post(t, c, w.portal.URL+"/pair/start", start); resp.StatusCode != 200 {
		t.Fatalf("start = %d %q", resp.StatusCode, body)
	}
	get(t, c, w.portal.URL+"/pair") // a refresh aborts
	resp, body := post(t, c, w.portal.URL+"/pair/start", start)
	if resp.StatusCode != 200 {
		t.Fatalf("restart with the same serial = %d %q, want 200", resp.StatusCode, body)
	}
	code, _ := otp.TOTP(secret, w.sim.Now(), w.otp.OTPOptions())
	resp, body = post(t, c, w.portal.URL+"/pair/confirm",
		url.Values{"state": {stateRe.FindStringSubmatch(body)[1]}, "code": {code}})
	if resp.StatusCode != 200 {
		t.Fatalf("confirm = %d %q", resp.StatusCode, body)
	}
	if err := w.otp.RemoveToken("hanlon"); err != nil {
		t.Fatal(err)
	}
	if n := w.otp.HardInventoryCount(); n != 0 {
		t.Fatalf("inventory after removing a confirmed fob = %d, want 0", n)
	}
}

func TestPairingConfirmReplayBlocked(t *testing.T) {
	w := newWorld(t)
	w.addUser(t, "alice", "pw")
	c := browser(t)
	login(t, w, c, "alice", "pw")
	_, body := post(t, c, w.portal.URL+"/pair/start", url.Values{"type": {"soft"}})
	state := stateRe.FindStringSubmatch(body)
	uri := uriRe.FindStringSubmatch(body)
	key, _ := otp.ParseURI(uri[1])
	code, _ := otp.TOTP(key.Secret, w.sim.Now(), key.Options)
	form := url.Values{"state": {state[1]}, "code": {code}}
	if resp, _ := post(t, c, w.portal.URL+"/pair/confirm", form); resp.StatusCode != 200 {
		t.Fatal("first confirm failed")
	}
	// Resubmitting the same form (browser retry) must not error the
	// pairing or create duplicates — it is refused as stale.
	resp, _ := post(t, c, w.portal.URL+"/pair/confirm", form)
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("replayed confirm status = %d", resp.StatusCode)
	}
	if p, _ := w.otp.Pairing("alice"); p != "soft" {
		t.Fatal("pairing state corrupted by replay")
	}
}

func TestPairingWrongCodeAllowsRetry(t *testing.T) {
	w := newWorld(t)
	w.addUser(t, "alice", "pw")
	c := browser(t)
	login(t, w, c, "alice", "pw")
	_, body := post(t, c, w.portal.URL+"/pair/start", url.Values{"type": {"soft"}})
	state := stateRe.FindStringSubmatch(body)
	uri := uriRe.FindStringSubmatch(body)

	resp, _ := post(t, c, w.portal.URL+"/pair/confirm",
		url.Values{"state": {state[1]}, "code": {"000000"}})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("wrong code status = %d", resp.StatusCode)
	}
	// Process still alive: the right code now succeeds.
	key, _ := otp.ParseURI(uri[1])
	code, _ := otp.TOTP(key.Secret, w.sim.Now(), key.Options)
	resp, _ = post(t, c, w.portal.URL+"/pair/confirm",
		url.Values{"state": {state[1]}, "code": {code}})
	if resp.StatusCode != 200 {
		t.Fatalf("retry status = %d", resp.StatusCode)
	}
}

func TestDoublePairingBlocked(t *testing.T) {
	w := newWorld(t)
	w.addUser(t, "alice", "pw")
	c := browser(t)
	login(t, w, c, "alice", "pw")
	pairSoft(t, w, c)
	resp, _ := post(t, c, w.portal.URL+"/pair/start", url.Values{"type": {"soft"}})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("double pair status = %d", resp.StatusCode)
	}
}

// pairSoft drives a complete soft pairing and returns the secret.
func pairSoft(t testing.TB, w *world, c *http.Client) []byte {
	t.Helper()
	_, body := post(t, c, w.portal.URL+"/pair/start", url.Values{"type": {"soft"}})
	state := stateRe.FindStringSubmatch(body)
	uri := uriRe.FindStringSubmatch(body)
	if state == nil || uri == nil {
		t.Fatalf("pair start body = %q", body)
	}
	key, err := otp.ParseURI(uri[1])
	if err != nil {
		t.Fatal(err)
	}
	code, _ := otp.TOTP(key.Secret, w.sim.Now(), key.Options)
	resp, b2 := post(t, c, w.portal.URL+"/pair/confirm",
		url.Values{"state": {state[1]}, "code": {code}})
	if resp.StatusCode != 200 {
		t.Fatalf("pairSoft confirm = %d %q", resp.StatusCode, b2)
	}
	return key.Secret
}

func TestUnpairWithCurrentCode(t *testing.T) {
	w := newWorld(t)
	w.addUser(t, "alice", "pw")
	c := browser(t)
	login(t, w, c, "alice", "pw")
	secret := pairSoft(t, w, c)

	// Wrong code refused.
	resp, _ := post(t, c, w.portal.URL+"/unpair/confirm", url.Values{"code": {"000000"}})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("wrong unpair code status = %d", resp.StatusCode)
	}
	// Current code unpairs. (Advance past the pairing confirmation's
	// consumed window so the code is fresh.)
	w.sim.Advance(31 * time.Second)
	code, _ := otp.TOTP(secret, w.sim.Now(), w.otp.OTPOptions())
	resp, body := post(t, c, w.portal.URL+"/unpair/confirm", url.Values{"code": {code}})
	if resp.StatusCode != 200 || !strings.Contains(body, "unpaired") {
		t.Fatalf("unpair = %d %q", resp.StatusCode, body)
	}
	if p, _ := w.otp.Pairing("alice"); p != "none" {
		t.Fatal("pairing survived unpair")
	}
	if w.hasToken("alice") {
		t.Fatal("token survived unpair")
	}
}

func TestHardUnpairRequiresTicket(t *testing.T) {
	w := newWorld(t)
	w.addUser(t, "hanlon", "pw")
	w.otp.ImportHardToken("C200-0009", []byte("fob-secret-0009-----"))
	c := browser(t)
	login(t, w, c, "hanlon", "pw")
	_, body := post(t, c, w.portal.URL+"/pair/start",
		url.Values{"type": {"hard"}, "serial": {"C200-0009"}})
	state := stateRe.FindStringSubmatch(body)
	code, _ := otp.TOTP([]byte("fob-secret-0009-----"), w.sim.Now(), w.otp.OTPOptions())
	post(t, c, w.portal.URL+"/pair/confirm", url.Values{"state": {state[1]}, "code": {code}})

	resp, _ := post(t, c, w.portal.URL+"/unpair/confirm", url.Values{"code": {code}})
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("hard unpair status = %d", resp.StatusCode)
	}
	resp, _ = post(t, c, w.portal.URL+"/unpair/email", nil)
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("hard unpair email status = %d", resp.StatusCode)
	}
}

func TestOutOfBandEmailUnpair(t *testing.T) {
	w := newWorld(t)
	w.addUser(t, "alice", "pw")
	c := browser(t)
	login(t, w, c, "alice", "pw")
	pairSoft(t, w, c)

	resp, _ := post(t, c, w.portal.URL+"/unpair/email", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("unpair email status = %d", resp.StatusCode)
	}
	body := w.email.lastBody()
	m := regexp.MustCompile(`token=(\S+)`).FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("no token in email body %q", body)
	}
	// "Following the URL in the email ... will allow the user to remove
	// the current MFA pairing." No session needed.
	anon := browser(t)
	resp, out := get(t, anon, w.portal.URL+"/unpair/oob?token="+m[1])
	if resp.StatusCode != 200 || !strings.Contains(out, "unpaired") {
		t.Fatalf("oob unpair = %d %q", resp.StatusCode, out)
	}
	if p, _ := w.otp.Pairing("alice"); p != "none" {
		t.Fatal("oob unpair did not clear pairing")
	}
	// The link is single-purpose: second use finds nothing to unpair.
	resp, _ = get(t, anon, w.portal.URL+"/unpair/oob?token="+m[1])
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("replayed oob status = %d", resp.StatusCode)
	}
}

var tokenRe = regexp.MustCompile(`token=(\S+)`)

// TestReplayedUnpairLinkAfterRepair pins the emailed link to the pairing it
// was issued for: followed once, it removes that device; replayed after the
// user has paired a new one, it is refused and the new device stays.
func TestReplayedUnpairLinkAfterRepair(t *testing.T) {
	w := newWorld(t)
	w.addUser(t, "alice", "pw")
	c := browser(t)
	login(t, w, c, "alice", "pw")
	pairSoft(t, w, c)
	post(t, c, w.portal.URL+"/unpair/email", nil)
	m := tokenRe.FindStringSubmatch(w.email.lastBody())
	if m == nil {
		t.Fatalf("no token in email body %q", w.email.lastBody())
	}
	link := w.portal.URL + "/unpair/oob?token=" + m[1]
	anon := browser(t)
	if resp, out := get(t, anon, link); resp.StatusCode != 200 {
		t.Fatalf("oob unpair = %d %q", resp.StatusCode, out)
	}
	w.sim.Advance(31 * time.Second)
	pairSoft(t, w, c)
	if resp, out := get(t, anon, link); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("replayed link after re-pair = %d %q, want 403", resp.StatusCode, out)
	}
	if p, _ := w.otp.Pairing("alice"); p != "soft" || !w.hasToken("alice") {
		t.Fatalf("replayed link removed the new device: pairing %v, token %v", p, w.hasToken("alice"))
	}
}

// TestUnpairIsOnTheBus: every unpair, by code or by link, publishes one
// enroll event with Result "unpaired", and authwatch counts it.
func TestUnpairIsOnTheBus(t *testing.T) {
	w := newWorld(t)
	sub := w.bus.Subscribe(64)
	defer sub.Close()
	w.addUser(t, "alice", "pw")
	c := browser(t)
	login(t, w, c, "alice", "pw")

	secret := pairSoft(t, w, c)
	w.sim.Advance(31 * time.Second)
	code, _ := otp.TOTP(secret, w.sim.Now(), w.otp.OTPOptions())
	if resp, out := post(t, c, w.portal.URL+"/unpair/confirm", url.Values{"code": {code}}); resp.StatusCode != 200 {
		t.Fatalf("unpair by code = %d %q", resp.StatusCode, out)
	}
	pairSoft(t, w, c)
	post(t, c, w.portal.URL+"/unpair/email", nil)
	m := tokenRe.FindStringSubmatch(w.email.lastBody())
	if resp, out := get(t, browser(t), w.portal.URL+"/unpair/oob?token="+m[1]); resp.StatusCode != 200 {
		t.Fatalf("unpair by link = %d %q", resp.StatusCode, out)
	}

	watch := authwatch.New(authwatch.Config{})
	unpaired := 0
	for len(sub.Events()) > 0 {
		e := <-sub.Events()
		watch.Ingest(e)
		if e.Type == eventstream.TypeEnroll && e.Result == "unpaired" {
			unpaired++
			if e.User != "alice" || e.Method != "soft" {
				t.Errorf("unpair event = %+v", e)
			}
		}
	}
	if unpaired != 2 {
		t.Fatalf("unpair events = %d, want 2 (one by code, one by link)", unpaired)
	}
	counted := 0
	for _, d := range watch.Snapshot().Days {
		counted += d.Unpairs
	}
	if counted != 2 {
		t.Fatalf("authwatch counted %d unpairs, want 2", counted)
	}
}

func TestOOBLinkForgeryAndExpiry(t *testing.T) {
	w := newWorld(t)
	w.addUser(t, "alice", "pw")
	c := browser(t)
	login(t, w, c, "alice", "pw")
	pairSoft(t, w, c)
	post(t, c, w.portal.URL+"/unpair/email", nil)
	m := regexp.MustCompile(`token=(\S+)`).FindStringSubmatch(w.email.lastBody())

	// Tampered token refused.
	anon := browser(t)
	resp, _ := get(t, anon, w.portal.URL+"/unpair/oob?token=AAAA"+m[1][4:])
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("forged token status = %d", resp.StatusCode)
	}
	// Expired link refused.
	w.sim.Advance(OOBTTL + time.Hour)
	resp, _ = get(t, anon, w.portal.URL+"/unpair/oob?token="+m[1])
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("expired token status = %d", resp.StatusCode)
	}
	if p, _ := w.otp.Pairing("alice"); p != "soft" {
		t.Fatal("pairing removed by bad link")
	}
}

func TestSessionExpiry(t *testing.T) {
	w := newWorld(t)
	w.addUser(t, "alice", "pw")
	c := browser(t)
	login(t, w, c, "alice", "pw")
	if resp, _ := get(t, c, w.portal.URL+"/home"); resp.StatusCode != 200 {
		t.Fatal("fresh session rejected")
	}
	w.sim.Advance(13 * time.Hour) // TTL is 12h
	if resp, _ := get(t, c, w.portal.URL+"/home"); resp.StatusCode != http.StatusUnauthorized {
		t.Fatal("expired session accepted")
	}
}

func TestLogout(t *testing.T) {
	w := newWorld(t)
	w.addUser(t, "alice", "pw")
	c := browser(t)
	login(t, w, c, "alice", "pw")
	post(t, c, w.portal.URL+"/logout", nil)
	if resp, _ := get(t, c, w.portal.URL+"/home"); resp.StatusCode != http.StatusUnauthorized {
		t.Fatal("session survived logout")
	}
}

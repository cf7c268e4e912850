// Package portal implements the web-based user portal of §3.5: the single
// place users manage their MFA device pairing. It reproduces the paper's
// flows in full:
//
//   - session login against the IDM, with the interstitial "splash screen"
//     for unpaired users, dismissible but re-shown on every login;
//   - a stateful pairing process per session (soft QR scan, SMS phone
//     number, hard-token serial), hardened against refreshes, form
//     resubmission, and the back button: any restart aborts the pending
//     pairing and the user starts from the beginning;
//   - token-code confirmation against the OTP back end via the
//     digest-authenticated admin REST API;
//   - unpairing with possession proof (current code), the signed-URL
//     out-of-band email path for lost devices, and the hard-token
//     exception (support ticket only);
//   - the pairing record §3.5 notifies the identity-management back end
//     of: here it is otpd's token record, which the token module's pairing
//     query reads, so each change is the one admin-API call that makes it.
package portal

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"openmfa/internal/clock"
	"openmfa/internal/cryptoutil"
	"openmfa/internal/eventstream"
	"openmfa/internal/idm"
	"openmfa/internal/obs"
	"openmfa/internal/otpd"
	"openmfa/internal/qr"
	"openmfa/internal/sms"
)

// EmailSender delivers out-of-band mail (unpair links). Tests capture it.
type EmailSender interface {
	SendEmail(to, subject, body string) error
}

// EmailFunc adapts a function.
type EmailFunc func(to, subject, body string) error

// SendEmail implements EmailSender.
func (f EmailFunc) SendEmail(to, subject, body string) error { return f(to, subject, body) }

// Config wires a Portal.
type Config struct {
	IDM   *idm.IDM          // required
	Admin *otpd.AdminClient // required
	Email EmailSender       // required for out-of-band unpairing
	Clock clock.Clock       // nil = real time
	// SessionKey signs cookies and out-of-band URLs (required).
	SessionKey []byte
	// BaseURL prefixes signed links in email.
	BaseURL string
	// Obs, when set, mounts /metrics, /healthz, and /debug/pprof on the
	// portal mux and counts requests per route and status class.
	Obs *obs.Registry
	// Events, when set, receives an enroll event per confirmed pairing
	// (Result "paired") and per unpairing (Result "unpaired") on the
	// operational analytics bus.
	Events *eventstream.Bus
	// HealthChecks are mounted alongside Obs on /healthz; any failing
	// check degrades the endpoint to 503.
	HealthChecks []obs.HealthCheck
	// ExtraMounts, when set, are applied to the portal mux after the
	// application routes (e.g. authwatch's /debug/authwatch handler).
	ExtraMounts []func(*http.ServeMux)
}

// sessionTTL is how long a login session and its signed cookie last.
const sessionTTL = 12 * time.Hour

// Portal is the web application.
type Portal struct {
	idm    *idm.IDM
	admin  *otpd.AdminClient
	email  EmailSender
	clk    clock.Clock
	signer *cryptoutil.Signer
	base   string
	obs    *obs.Registry
	events *eventstream.Bus
	checks []obs.HealthCheck
	mounts []func(*http.ServeMux)

	mu       sync.Mutex
	sessions map[string]*session
}

type session struct {
	user    string
	expires time.Time
	pending *pairingState
}

// pairingState is the stateful, no-refresh pairing operation.
type pairingState struct {
	typ    otpd.TokenType
	nonce  string
	secret string // base32, soft only (displayed as QR)
	uri    string
	serial string
	phone  string
	id     uint64 // the pairing ID of the provisional token
}

// New builds the Portal.
func New(cfg Config) (*Portal, error) {
	if cfg.IDM == nil || cfg.Admin == nil {
		return nil, errors.New("portal: IDM and Admin required")
	}
	if len(cfg.SessionKey) == 0 {
		return nil, errors.New("portal: SessionKey required")
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.Real{}
	}
	return &Portal{
		idm:      cfg.IDM,
		admin:    cfg.Admin,
		email:    cfg.Email,
		clk:      clk,
		signer:   cryptoutil.NewSigner(cfg.SessionKey),
		base:     strings.TrimSuffix(cfg.BaseURL, "/"),
		obs:      cfg.Obs,
		events:   cfg.Events,
		checks:   cfg.HealthChecks,
		mounts:   cfg.ExtraMounts,
		sessions: make(map[string]*session),
	}, nil
}

// Handler returns the portal's HTTP mux. With Config.Obs set, the ops
// endpoints (/metrics, /healthz, /debug/pprof) are mounted alongside the
// application routes and every application request increments
// portal_http_requests_total{route,code}.
func (p *Portal) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, p.counted(pattern, h))
	}
	handle("POST /login", p.handleLogin)
	handle("POST /logout", p.handleLogout)
	handle("GET /home", p.auth(p.handleHome))
	handle("GET /splash", p.auth(p.handleSplash))
	handle("GET /pair", p.auth(p.handlePairPage))
	handle("POST /pair/start", p.auth(p.handlePairStart))
	handle("POST /pair/confirm", p.auth(p.handlePairConfirm))
	handle("POST /unpair/confirm", p.auth(p.handleUnpairConfirm))
	handle("POST /unpair/email", p.auth(p.handleUnpairEmail))
	handle("GET /unpair/oob", p.handleUnpairOOB)
	if p.obs != nil {
		obs.Mount(mux, p.obs, p.checks...)
	}
	for _, m := range p.mounts {
		m(mux)
	}
	return mux
}

// statusRecorder captures the response code for the request counter.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// counted wraps h with per-route, per-status-class request counting.
func (p *Portal) counted(route string, h http.HandlerFunc) http.HandlerFunc {
	if p.obs == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		p.obs.Counter("portal_http_requests_total",
			"route", route, "code", strconv.Itoa(rec.code)).Inc()
	}
}

const cookieName = "portal_session"

// --- session plumbing ---

func (p *Portal) handleLogin(w http.ResponseWriter, r *http.Request) {
	user := strings.ToLower(r.PostFormValue("username"))
	pass := r.PostFormValue("password")
	if err := p.idm.Authenticate(user, pass); err != nil {
		http.Error(w, "bad credentials", http.StatusUnauthorized)
		return
	}
	sid := cryptoutil.RandomHex(16)
	now := p.clk.Now()
	p.mu.Lock()
	p.sessions[sid] = &session{user: user, expires: now.Add(sessionTTL)}
	for id, s := range p.sessions { // opportunistic GC
		if now.After(s.expires) {
			delete(p.sessions, id)
		}
	}
	p.mu.Unlock()
	http.SetCookie(w, &http.Cookie{
		Name: cookieName, Path: "/", HttpOnly: true,
		Value: p.signer.Sign(sid, now.Add(sessionTTL)),
	})
	// "If no multi-factor device is configured, then the user is
	// directed to an interstitial page" — on every log in.
	pairing, _, err := p.admin.Pairing(user)
	if err == nil && pairing == "none" {
		http.Redirect(w, r, "/splash", http.StatusSeeOther)
		return
	}
	http.Redirect(w, r, "/home", http.StatusSeeOther)
}

func (p *Portal) handleLogout(w http.ResponseWriter, r *http.Request) {
	if s, sid := p.session(r); s != nil {
		p.abortPending(s)
		p.mu.Lock()
		delete(p.sessions, sid)
		p.mu.Unlock()
	}
	http.SetCookie(w, &http.Cookie{Name: cookieName, Path: "/", MaxAge: -1})
	fmt.Fprintln(w, "logged out")
}

func (p *Portal) session(r *http.Request) (*session, string) {
	c, err := r.Cookie(cookieName)
	if err != nil {
		return nil, ""
	}
	sid, err := p.signer.Verify(c.Value, p.clk.Now())
	if err != nil {
		return nil, ""
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.sessions[sid]
	if s == nil || p.clk.Now().After(s.expires) {
		return nil, ""
	}
	return s, sid
}

func (p *Portal) auth(fn func(http.ResponseWriter, *http.Request, *session)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s, _ := p.session(r)
		if s == nil {
			http.Error(w, "not logged in", http.StatusUnauthorized)
			return
		}
		fn(w, r, s)
	}
}

// --- pages ---

func (p *Portal) handleHome(w http.ResponseWriter, r *http.Request, s *session) {
	pairing, _, _ := p.admin.Pairing(s.user)
	fmt.Fprintf(w, "user: %s\npairing: %s\n", s.user, pairing)
}

func (p *Portal) handleSplash(w http.ResponseWriter, r *http.Request, s *session) {
	// The splash explains the requirement and links to pairing. It is
	// dismissible (the user simply navigates to /home) but will be shown
	// again at next login.
	fmt.Fprintf(w, "Multi-factor authentication is required for system entry.\n"+
		"Pair a device now: %s/pair\nDismiss: %s/home\n", p.base, p.base)
}

func (p *Portal) handlePairPage(w http.ResponseWriter, r *http.Request, s *session) {
	// "If a user refreshes in the middle of the process ... the process
	// is aborted and the user will have to restart from the beginning."
	p.abortPending(s)
	pairing, _, _ := p.admin.Pairing(s.user)
	fmt.Fprintf(w, "current pairing: %s\noptions: soft sms hard\n", pairing)
}

// abortPending discards a half-finished pairing, removing its provisional
// token from the back end unless another pairing has replaced it.
func (p *Portal) abortPending(s *session) {
	p.mu.Lock()
	pending := s.pending
	s.pending = nil
	p.mu.Unlock()
	if pending != nil {
		p.admin.Abort(s.user, pending.id) // best effort
	}
}

func (p *Portal) handlePairStart(w http.ResponseWriter, r *http.Request, s *session) {
	p.abortPending(s) // restarting the process aborts the previous one

	if pairing, _, _ := p.admin.Pairing(s.user); pairing != "none" {
		http.Error(w, "a device is already paired; unpair it first", http.StatusConflict)
		return
	}
	typ := otpd.TokenType(r.PostFormValue("type"))
	st := &pairingState{typ: typ, nonce: cryptoutil.RandomHex(8)}

	switch typ {
	case otpd.TokenSoft:
	case otpd.TokenSMS:
		if st.phone = r.PostFormValue("phone"); !sms.ValidUSNumber(st.phone) {
			http.Error(w, "enter a ten-digit, US-based phone number", http.StatusBadRequest)
			return
		}
	case otpd.TokenHard:
		if st.serial = strings.TrimSpace(r.PostFormValue("serial")); st.serial == "" {
			http.Error(w, "enter the serial number on the back of the token", http.StatusBadRequest)
			return
		}
	default:
		http.Error(w, "unknown device type", http.StatusBadRequest)
		return
	}
	enr, err := p.admin.Init(s.user, typ, st.phone, st.serial)
	if err != nil {
		p.adminError(w, err)
		return
	}
	st.secret, st.uri, st.id = enr.Secret, enr.URI, enr.PairingID
	// "The portal then triggers the LinOTP server to send a token code
	// to the user via SMS."
	if typ == otpd.TokenSMS {
		if _, _, err := p.admin.TriggerSMS(s.user); err != nil {
			p.admin.Abort(s.user, st.id)
			p.adminError(w, err)
			return
		}
	}

	p.mu.Lock()
	s.pending = st
	p.mu.Unlock()

	switch typ {
	case otpd.TokenSoft:
		// The QR code "contains the user's secret key encoded as an
		// image": render the real symbol plus its payload.
		fmt.Fprintf(w, "state: %s\nscan this QR payload: %s\nthen enter the code shown in the app\n", st.nonce, st.uri)
		if code, err := qr.Encode(st.uri, qr.L); err == nil {
			fmt.Fprintf(w, "\n%s\n", code.Render())
		}
	case otpd.TokenSMS:
		fmt.Fprintf(w, "state: %s\nan SMS was sent to %s; enter the code to confirm receipt\n", st.nonce, st.phone)
	case otpd.TokenHard:
		fmt.Fprintf(w, "state: %s\nenter the current code on fob %s to confirm it survived shipment\n", st.nonce, st.serial)
	}
}

func (p *Portal) handlePairConfirm(w http.ResponseWriter, r *http.Request, s *session) {
	p.mu.Lock()
	st := s.pending
	p.mu.Unlock()
	if st == nil {
		// Replay/back-button: no live pairing process.
		http.Error(w, "no pairing in progress; start again", http.StatusGone)
		return
	}
	if got := r.PostFormValue("state"); got != st.nonce {
		// A stale form post from an aborted process.
		http.Error(w, "stale pairing form; start again", http.StatusGone)
		return
	}
	code := r.PostFormValue("code")
	ok, msg, err := p.admin.Validate(s.user, code)
	if err != nil {
		p.adminError(w, err)
		return
	}
	if !ok {
		// Wrong code: the process stays alive for another try.
		http.Error(w, "code did not validate: "+msg, http.StatusUnprocessableEntity)
		return
	}
	// "the identity management back end is notified that the user has
	// paired": the accepted code confirmed the token in the same write.
	p.mu.Lock()
	s.pending = nil
	p.mu.Unlock()
	if p.events != nil {
		p.events.Publish(eventstream.Event{
			Time: p.clk.Now(), Type: eventstream.TypeEnroll, Component: "portal",
			User: s.user, Method: string(st.typ), Result: "paired",
		})
	}
	fmt.Fprintf(w, "paired: %s\n", st.typ)
}

// --- unpairing ---

func (p *Portal) handleUnpairConfirm(w http.ResponseWriter, r *http.Request, s *session) {
	pairing, id, err := p.admin.Pairing(s.user)
	if err != nil || pairing == "none" {
		http.Error(w, "no device paired", http.StatusNotFound)
		return
	}
	if pairing == string(otpd.TokenHard) {
		// "Support is not provided for the unpairing of a hard token
		// device via the portal. Instead ... submit a request directly
		// to the center's user support ticketing system."
		http.Error(w, "hard tokens are unpaired via a support ticket", http.StatusForbidden)
		return
	}
	// Possession proof: the current token code.
	code := r.PostFormValue("code")
	ok, msg, err := p.admin.Validate(s.user, code)
	if err != nil {
		p.adminError(w, err)
		return
	}
	if !ok {
		http.Error(w, "code did not validate: "+msg, http.StatusUnprocessableEntity)
		return
	}
	if err := p.unpair(s.user, pairing, id); err != nil {
		p.adminError(w, err)
		return
	}
	fmt.Fprintln(w, "device unpaired")
}

// unpair removes user's device from otpd if it is still pairing id, then
// announces it on the bus: an unpair is the account-takeover signal.
func (p *Portal) unpair(user, was string, id uint64) error {
	if err := p.admin.Remove(user, &id); err != nil {
		return err
	}
	if p.events != nil {
		p.events.Publish(eventstream.Event{
			Time: p.clk.Now(), Type: eventstream.TypeEnroll, Component: "portal",
			User: user, Method: string(was), Result: "unpaired",
		})
	}
	return nil
}

// OOBTTL is the lifetime of out-of-band unpair links.
const OOBTTL = 24 * time.Hour

func (p *Portal) handleUnpairEmail(w http.ResponseWriter, r *http.Request, s *session) {
	if p.email == nil {
		http.Error(w, "email unavailable", http.StatusServiceUnavailable)
		return
	}
	acct, err := p.idm.Lookup(s.user)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	pairing, id, err := p.admin.Pairing(s.user)
	if err != nil {
		p.adminError(w, err)
		return
	}
	if pairing == string(otpd.TokenHard) {
		http.Error(w, "hard tokens are unpaired via a support ticket", http.StatusForbidden)
		return
	}
	// "The user is sent an email to their associated account email
	// address that contains a signed URL." The URL names the pairing it
	// was issued for, so it dies on first use and on any re-pair.
	tok := p.signer.Sign(fmt.Sprintf("unpair:%s:%d", s.user, id), p.clk.Now().Add(OOBTTL))
	link := fmt.Sprintf("%s/unpair/oob?token=%s", p.base, tok)
	body := fmt.Sprintf("Follow this link to remove your MFA device pairing:\n%s\n", link)
	if err := p.email.SendEmail(acct.Email, "MFA device unpairing request", body); err != nil {
		http.Error(w, "could not send email", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "unpairing email sent")
}

func (p *Portal) handleUnpairOOB(w http.ResponseWriter, r *http.Request) {
	payload, err := p.signer.Verify(r.URL.Query().Get("token"), p.clk.Now())
	if err != nil {
		http.Error(w, "invalid or expired link", http.StatusForbidden)
		return
	}
	rest, ok := strings.CutPrefix(payload, "unpair:")
	i := strings.LastIndexByte(rest, ':')
	linked, err := strconv.ParseUint(rest[i+1:], 10, 64)
	if !ok || i < 0 || err != nil {
		http.Error(w, "invalid link", http.StatusForbidden)
		return
	}
	user := rest[:i]
	pairing, id, err := p.admin.Pairing(user)
	if err != nil || pairing == "none" {
		http.Error(w, "no device paired", http.StatusNotFound)
		return
	}
	if pairing == string(otpd.TokenHard) {
		http.Error(w, "hard tokens are unpaired via a support ticket", http.StatusForbidden)
		return
	}
	if id != linked {
		http.Error(w, "link was issued for an earlier pairing", http.StatusForbidden)
		return
	}
	if err := p.unpair(user, pairing, linked); err != nil {
		p.adminError(w, err)
		return
	}
	fmt.Fprintln(w, "device unpaired")
}

func (p *Portal) adminError(w http.ResponseWriter, err error) {
	var apiErr *otpd.APIError
	if errors.As(err, &apiErr) {
		http.Error(w, apiErr.Message, apiErr.Status)
		return
	}
	http.Error(w, "back end unavailable", http.StatusBadGateway)
}

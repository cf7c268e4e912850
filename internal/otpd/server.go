package otpd

import (
	"crypto/subtle"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"openmfa/internal/clock"
	"openmfa/internal/cryptoutil"
	"openmfa/internal/eventstream"
	"openmfa/internal/obs"
	"openmfa/internal/otp"
	"openmfa/internal/store"
	"openmfa/internal/syncutil"
)

// SMSSender delivers a token code out of band. The production wiring uses
// the sms.Gateway; tests can substitute a function.
type SMSSender interface {
	SendSMS(phone, body string) error
}

// SMSSenderFunc adapts a function to SMSSender.
type SMSSenderFunc func(phone, body string) error

// SendSMS calls f.
func (f SMSSenderFunc) SendSMS(phone, body string) error { return f(phone, body) }

// Config configures a Server.
type Config struct {
	// DB is the backing store (required).
	DB *store.Store
	// EncryptionKey seals token secrets at rest and signs the audit
	// chain (16/24/32 bytes, required).
	EncryptionKey []byte
	// Clock defaults to the real clock.
	Clock clock.Clock
	// SMS delivers SMS codes; required only if SMS tokens are used.
	SMS SMSSender
	// LockoutThreshold defaults to DefaultLockoutThreshold (20).
	// Negative values are rejected by New.
	LockoutThreshold int
	// OTP holds the TOTP parameters. Zero fields are filled
	// individually from the deployment defaults (6 digits / 30 s /
	// SHA-1 / ±300 s); explicitly set fields are kept. A negative Skew
	// is normalised to zero (no drift tolerance); a period under one
	// second or an out-of-range digit count or algorithm is rejected.
	OTP otp.TOTPOptions
	// Issuer labels otpauth URIs; defaults to "HPC".
	Issuer string
	// Obs, when set, receives validation/SMS counters and latency
	// histograms. Handles are resolved once in New so the Check hot path
	// costs only atomic operations.
	Obs *obs.Registry
	// Logger, when set, receives a structured line per validation
	// (component=otpd) carrying the RADIUS request's trace ID.
	Logger *obs.Logger
	// Spans, when set, records an otpd.check span per validation under
	// the RADIUS request's trace ID (the back-end leg of the login's
	// span tree; it joins the sshd/pam legs through the shared trace).
	Spans *obs.SpanStore
	// Events, when set, receives typed auth events (SMS sends, lockouts,
	// token enrolments) on the operational analytics bus.
	Events *eventstream.Bus
	// CoalesceWrites routes record saves through a store.Batcher so
	// concurrent validations share WAL frames (and fsyncs) instead of
	// logging one frame per login. Safe because each save touches only
	// that user's record and callers never depend on another in-flight
	// caller's write being excluded from their frame.
	CoalesceWrites bool
}

// recordWriter is the store surface record saves go through: either the
// Store itself or a coalescing Batcher in front of it.
type recordWriter interface {
	Apply(ops []store.Op) error
}

// Server is the OTP platform.
type Server struct {
	db        *store.Store
	writes    recordWriter
	box       *cryptoutil.Box
	clk       clock.Clock
	sms       SMSSender
	opts      otp.TOTPOptions
	issuer    string
	threshold int
	audit     *Audit

	// users serialises per-user state transitions (fail counter,
	// replay high-water mark, SMS activity, enrolment) without
	// serialising distinct users behind one mutex: the table is striped
	// by a hash of the lowercased username, so validations for
	// different users proceed in parallel across cores.
	users *syncutil.StripedMutex
	// serials guards the hard-token inventory the same way, keyed by
	// fob serial (AssignHardToken races ImportHardToken and other
	// assignments for the same serial).
	serials *syncutil.StripedMutex

	met    otpdMetrics
	logger *obs.Logger
	spans  *obs.SpanStore
	events *eventstream.Bus
}

// otpdMetrics holds pre-resolved handles so the validation hot path never
// takes the registry's lookup lock. All fields are nil (no-op) when no
// registry is configured.
type otpdMetrics struct {
	checkDur map[string]*obs.Histogram // by result class
	checkTot map[string]*obs.Counter
	lockouts *obs.Counter
	smsDur   *obs.Histogram
	smsTot   map[string]*obs.Counter
}

// checkResultClasses are the label values otpd_check_* metrics use.
var checkResultClasses = []string{"ok", "invalid", "locked_out", "error"}

func newOtpdMetrics(reg *obs.Registry) otpdMetrics {
	var m otpdMetrics
	if reg == nil {
		return m
	}
	m.checkDur = make(map[string]*obs.Histogram)
	m.checkTot = make(map[string]*obs.Counter)
	for _, res := range checkResultClasses {
		m.checkDur[res] = reg.Histogram("otpd_check_duration_seconds", nil, "result", res)
		m.checkTot[res] = reg.Counter("otpd_check_total", "result", res)
	}
	m.lockouts = reg.Counter("otpd_lockouts_total")
	m.smsDur = reg.Histogram("otpd_sms_duration_seconds", nil)
	m.smsTot = make(map[string]*obs.Counter)
	for _, res := range []string{"sent", "suppressed", "error"} {
		m.smsTot[res] = reg.Counter("otpd_sms_total", "result", res)
	}
	return m
}

// New builds a Server from cfg.
func New(cfg Config) (*Server, error) {
	if cfg.DB == nil {
		return nil, errors.New("otpd: Config.DB required")
	}
	box, err := cryptoutil.NewBox(cfg.EncryptionKey)
	if err != nil {
		return nil, fmt.Errorf("otpd: bad encryption key: %w", err)
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.Real{}
	}
	opts, err := normalizeOTPOptions(cfg.OTP)
	if err != nil {
		return nil, err
	}
	if cfg.LockoutThreshold < 0 {
		return nil, fmt.Errorf("otpd: negative LockoutThreshold %d", cfg.LockoutThreshold)
	}
	threshold := cfg.LockoutThreshold
	if threshold == 0 {
		threshold = DefaultLockoutThreshold
	}
	issuer := cfg.Issuer
	if issuer == "" {
		issuer = "HPC"
	}
	var writes recordWriter = cfg.DB
	if cfg.CoalesceWrites {
		writes = store.NewBatcher(cfg.DB, 0)
	}
	return &Server{
		db: cfg.DB, writes: writes, box: box, clk: clk, sms: cfg.SMS, opts: opts,
		issuer: issuer, threshold: threshold,
		audit:   NewAudit(cfg.EncryptionKey, clk.Now),
		users:   syncutil.NewStriped(0),
		serials: syncutil.NewStriped(0),
		met:     newOtpdMetrics(cfg.Obs),
		logger:  cfg.Logger,
		spans:   cfg.Spans,
		events:  cfg.Events,
	}, nil
}

// publish emits an auth event stamped with the server clock (so simulated
// deployments aggregate on simulated time). No-op without a bus.
func (s *Server) publish(e eventstream.Event) {
	if s.events == nil {
		return
	}
	e.Time = s.clk.Now()
	e.Component = "otpd"
	s.events.Publish(e)
}

// normalizeOTPOptions fills zero fields with the deployment defaults —
// field by field, so a caller who sets only Digits still gets the default
// period and drift window — and rejects values the validation path cannot
// run with.
func normalizeOTPOptions(o otp.TOTPOptions) (otp.TOTPOptions, error) {
	def := otp.DefaultTOTPOptions()
	if o.Period == 0 {
		o.Period = def.Period
	}
	if o.Period < time.Second {
		return o, fmt.Errorf("otpd: OTP period %v must be at least 1s", o.Period)
	}
	if o.Digits == 0 {
		o.Digits = def.Digits
	}
	if !o.Digits.Valid() {
		return o, fmt.Errorf("otpd: %w (got %d)", otp.ErrInvalidDigits, int(o.Digits))
	}
	switch o.Algorithm {
	case otp.SHA1, otp.SHA256, otp.SHA512:
	default:
		return o, fmt.Errorf("otpd: unknown OTP algorithm %v", o.Algorithm)
	}
	if o.Skew == 0 {
		o.Skew = def.Skew
	} else if o.Skew < 0 {
		o.Skew = 0 // explicit "no drift tolerance"
	}
	return o, nil
}

// Audit exposes the audit log.
func (s *Server) Audit() *Audit { return s.audit }

// OTPOptions returns the validation parameters in force.
func (s *Server) OTPOptions() otp.TOTPOptions { return s.opts }

// Enrollment is returned by Init* calls; it carries the material the
// portal needs to finish pairing.
type Enrollment struct {
	User   string
	Type   TokenType
	Secret []byte // nil for training tokens
	Serial string // hard tokens
	Phone  string // SMS tokens
	URI    string // otpauth:// URI (soft tokens: the QR payload)
	// PairingID names this pairing; AbortPairing removes only its token.
	PairingID uint64
}

// InitSoftToken provisions a fresh soft token for user. The secret is
// returned once (encoded in the QR the portal shows) and stored sealed.
// In-process enrolments pair at once; the admin API's /init (the
// portal's path) enrols a provisional token.
func (s *Server) InitSoftToken(user string) (*Enrollment, error) {
	return s.initGenerated(user, TokenSoft, "", false)
}

// InitSMSToken provisions an SMS token tied to phone.
func (s *Server) InitSMSToken(user, phone string) (*Enrollment, error) {
	return s.initGenerated(user, TokenSMS, phone, false)
}

func (s *Server) initGenerated(user string, typ TokenType, phone string, provisional bool) (*Enrollment, error) {
	user = strings.ToLower(user)
	if user == "" {
		return nil, errors.New("otpd: empty user")
	}
	if typ == TokenSMS && phone == "" {
		return nil, errors.New("otpd: phone required for SMS token")
	}
	s.users.Lock(user)
	defer s.users.Unlock(user)
	if err := s.clearProvisional(user); err != nil {
		return nil, err
	}
	secret := cryptoutil.RandomBytes(20)
	r := s.newRecord(user, typ, secret, provisional)
	r.Phone = phone
	if err := s.saveRecord(r); err != nil {
		return nil, err
	}
	key := otp.Key{Issuer: s.issuer, Account: user, Secret: secret, Options: s.opts}
	s.audit.Record("init", user, "type="+string(typ), true)
	s.publish(eventstream.Event{
		Type: eventstream.TypeEnroll, User: user, Method: string(typ),
	})
	return &Enrollment{User: user, Type: typ, Secret: secret, Phone: phone, URI: key.URI(), PairingID: r.PairingID}, nil
}

// newRecord is a fresh, active token record with a random pairing ID.
func (s *Server) newRecord(user string, typ TokenType, secret []byte, provisional bool) *record {
	r := &record{
		User: user, Type: typ, Active: true, Provisional: provisional,
		PairingID: binary.LittleEndian.Uint64(cryptoutil.RandomBytes(8)), CreatedUnix: s.clk.Now().Unix(),
	}
	if secret != nil {
		r.SecretSealed, r.secret = s.sealSecret(user, secret), secret
	}
	return r
}

// AssignHardToken pairs an inventory fob (by serial) to user.
func (s *Server) AssignHardToken(user, serial string) (*Enrollment, error) {
	return s.assignHard(user, serial, false)
}

func (s *Server) assignHard(user, serial string, provisional bool) (*Enrollment, error) {
	user = strings.ToLower(user)
	// Lock order: user stripe, then serial stripe (ImportHardToken takes
	// only the serial stripe, so the order is never inverted).
	s.users.Lock(user)
	defer s.users.Unlock(user)
	s.serials.Lock(serial)
	defer s.serials.Unlock(serial)
	if err := s.clearProvisional(user); err != nil {
		return nil, err
	}
	b, err := s.db.Get(hardInvKey(serial))
	if errors.Is(err, store.ErrNotFound) {
		return nil, ErrBadSerial
	}
	if err != nil {
		return nil, err
	}
	var inv hardInventory
	if err := unmarshal(b, &inv); err != nil {
		return nil, err
	}
	secret, err := s.box.Open(inv.SecretSealed, []byte("serial:"+serial))
	if err != nil {
		return nil, fmt.Errorf("otpd: inventory unseal: %w", err)
	}
	r := s.newRecord(user, TokenHard, secret, provisional)
	r.Serial = serial
	if b, err = json.Marshal(r); err != nil {
		return nil, err
	}
	// The fob leaves inventory in the write that pairs it.
	if err := s.writes.Apply([]store.Op{{Key: tokenKey(user), Value: b, Decoded: r}, {Key: hardInvKey(serial), Delete: true}}); err != nil {
		return nil, err
	}
	s.audit.Record("assign_hard", user, "serial="+serial, true)
	s.publish(eventstream.Event{
		Type: eventstream.TypeEnroll, User: user, Method: string(TokenHard),
		Detail: "serial=" + serial,
	})
	return &Enrollment{User: user, Type: TokenHard, Serial: serial, PairingID: r.PairingID}, nil
}

// SetStaticToken provisions (or reprovisions) a training account with a
// static six-digit code (§3.3: "LinOTP provides the capability to set a
// static, six-digit token code for individual accounts").
func (s *Server) SetStaticToken(user, code string) error {
	user = strings.ToLower(user)
	if len(code) != 6 || strings.TrimLeft(code, "0123456789") != "" {
		return ErrBadStatic
	}
	s.users.Lock(user)
	defer s.users.Unlock(user)
	cur, err := s.loadRecord(user)
	switch {
	case errors.Is(err, ErrNoToken):
		cur = nil
	case err != nil:
		return err
	case !cur.Provisional && cur.Type != TokenTraining:
		return fmt.Errorf("otpd: %s has a %s token; remove it first", user, cur.Type)
	}
	// A portal enrolment no code confirmed is replaced, as Init* replace
	// it.
	created := cur == nil || cur.Provisional
	var r record
	if created {
		r = *s.newRecord(user, TokenTraining, nil, false)
	} else {
		r = *cur
	}
	// "The static token codes are easily regenerated once the training
	// session is finished" — reprovisioning resets state.
	r.StaticSealed = s.box.Seal([]byte(code), []byte("static:"+user))
	r.FailCount = 0
	r.Active = true
	if err := s.replace(user, cur, &r); err != nil {
		return err
	}
	s.audit.Record("set_static", user, "", true)
	if created {
		s.publish(eventstream.Event{
			Type: eventstream.TypeEnroll, User: user, Method: string(TokenTraining),
		})
	}
	return nil
}

// RemoveToken unpairs user's token (see remove for the fob). A record
// that cannot be read is removed all the same.
func (s *Server) RemoveToken(user string) error { return s.removePairing(user, nil) }

// removePairing is RemoveToken, limited by a non-nil id to the pairing
// that carries it (0 for a record written before pairing IDs): any other
// token is ErrPairingChanged, and an unreadable one stays.
func (s *Server) removePairing(user string, id *uint64) error {
	user = strings.ToLower(user)
	s.users.Lock(user)
	defer s.users.Unlock(user)
	cur, err := s.loadRecord(user)
	if errors.Is(err, ErrNoToken) || err != nil && id != nil {
		return err
	}
	if id != nil && cur.PairingID != *id {
		return ErrPairingChanged
	}
	if err := s.remove(user, cur); err != nil {
		return err
	}
	s.audit.Record("remove", user, "", true)
	return nil
}

// AbortPairing removes user's token only while it is the provisional one
// that pairing id enrolled: the portal abandons its own pairing and never
// one that replaced it or that a code has confirmed.
func (s *Server) AbortPairing(user string, id uint64) error {
	user = strings.ToLower(user)
	s.users.Lock(user)
	defer s.users.Unlock(user)
	cur, err := s.loadRecord(user)
	if err != nil || !cur.Provisional || cur.PairingID != id {
		return err
	}
	if err := s.remove(user, cur); err != nil {
		return err
	}
	s.audit.Record("abort", user, "", true)
	return nil
}

// Token returns the admin view of user's token.
func (s *Server) Token(user string) (TokenInfo, error) {
	r, err := s.loadRecord(strings.ToLower(user))
	if err != nil {
		return TokenInfo{}, err
	}
	return r.info(), nil
}

// Tokens lists every provisioned token.
func (s *Server) Tokens() []TokenInfo {
	var out []TokenInfo
	kvs, _ := s.db.Scan("token/")
	for _, kv := range kvs {
		var r record
		if err := unmarshal(kv.Value, &r); err == nil {
			out = append(out, r.info())
		}
	}
	return out
}

// CheckResult reports a validation outcome.
type CheckResult struct {
	OK      bool
	Message string
	// LockedOut is set when this attempt tripped (or found) the lockout.
	LockedOut bool
}

// Check validates a token code for user. Semantics per the paper:
//
//   - Success consumes the code: "the provided token code is nullified"
//     (§3.2) — a replayed counter is rejected.
//   - "In the event of a token mismatch, the token code remains valid and
//     a failure message is sent instead."
//   - 20 consecutive failures deactivate the token (§3.1); successes reset
//     the counter.
func (s *Server) Check(user, code string) (CheckResult, error) {
	return s.checkTraced("", user, code)
}

// checkTraced is Check under a login's trace ID, which the RADIUS handler
// reads from the request: it tags the span, the lockout event and the
// structured log line so one login can be followed from sshd all the way
// into the validation back end.
func (s *Server) checkTraced(trace, user, code string) (CheckResult, error) {
	start := time.Now()
	span := s.spans.Start(trace, "otpd.check")
	res, err := s.check(user, code)
	class := checkClass(res, err)
	span.SetAttr("user", strings.ToLower(user))
	span.SetAttr("result", class)
	span.End()
	if s.met.checkTot != nil {
		s.met.checkTot[class].Inc()
		s.met.checkDur[class].ObserveSince(start)
		if res.LockedOut && err == nil {
			// This attempt tripped the lockout (later attempts against a
			// locked token return ErrLockedOut instead).
			s.met.lockouts.Inc()
		}
	}
	if res.LockedOut && err == nil {
		s.publish(eventstream.Event{
			Type: eventstream.TypeLockout, Trace: trace,
			User: strings.ToLower(user), Result: class,
		})
	}
	if s.logger != nil {
		s.logger.Info("check", "component", "otpd", "trace", trace,
			"user", strings.ToLower(user), "result", class)
	}
	return res, err
}

// checkClass maps a validation outcome onto the metric result classes.
func checkClass(res CheckResult, err error) string {
	switch {
	case err == nil && res.OK:
		return "ok"
	case errors.Is(err, ErrLockedOut) || (err == nil && res.LockedOut):
		return "locked_out"
	case err == nil:
		return "invalid"
	default:
		return "error"
	}
}

func (s *Server) check(user, code string) (CheckResult, error) {
	user = strings.ToLower(user)
	s.users.Lock(user)
	defer s.users.Unlock(user)

	cur, err := s.loadRecord(user)
	if err != nil {
		return CheckResult{Message: "no token"}, err
	}
	r := *cur // the state change below is made on a private copy
	if !r.Active {
		s.audit.Record("check", user, "locked out", false)
		return CheckResult{Message: "token deactivated", LockedOut: true}, ErrLockedOut
	}

	ok := false
	var matched uint64
	switch r.Type {
	case TokenTraining:
		static, err := s.box.Open(r.StaticSealed, []byte("static:"+user))
		if err != nil {
			return CheckResult{}, fmt.Errorf("otpd: unseal static: %w", err)
		}
		ok = len(static) == len(code) &&
			subtle.ConstantTimeCompare(static, []byte(code)) == 1
	default:
		secret, err := s.secretOf(user, &r)
		if err != nil {
			return CheckResult{}, fmt.Errorf("otpd: unseal secret: %w", err)
		}
		matched, ok = otp.ValidateTOTP(secret, code, s.clk.Now(), s.opts)
		if ok && matched <= r.LastCounter {
			// Replay of a consumed code.
			ok = false
		}
	}

	if !ok {
		r.FailCount++
		res := CheckResult{Message: "invalid token code"}
		if r.FailCount >= s.threshold {
			r.Active = false
			res.LockedOut = true
			res.Message = "token deactivated after repeated failures"
		}
		if err := s.saveRecord(&r); err != nil {
			return CheckResult{}, err
		}
		s.audit.Record("check", user, fmt.Sprintf("fail_count=%d", r.FailCount), false)
		return res, nil
	}

	r.FailCount = 0
	r.Provisional = false // the first accepted code confirms a pairing
	if r.Type != TokenTraining {
		r.LastCounter = matched
	}
	// The consumed code is no longer "active": the next null request may
	// send a fresh SMS immediately instead of the already-sent notice.
	r.LastSMSUnix = 0
	if err := s.saveRecord(&r); err != nil {
		return CheckResult{}, err
	}
	s.audit.Record("check", user, "", true)
	return CheckResult{OK: true, Message: "token validated"}, nil
}

// smsValidity is how long an SMS code remains "active", suppressing
// duplicate sends: "While the token code is active, if another request is
// made, LinOTP will not forward to Twilio" (§3.3). SMS codes tolerate the
// full drift window, so activity mirrors it.
func (s *Server) smsValidity() time.Duration {
	v := s.opts.Skew
	if v <= 0 {
		v = s.opts.Period
	}
	return v
}

// TriggerSMS sends the current token code to user's phone, unless a code
// is still active. It returns (sent, userMessage).
func (s *Server) TriggerSMS(user string) (bool, string, error) {
	return s.triggerSMSTraced("", user)
}

// triggerSMSTraced is TriggerSMS under a login's trace ID, which tags the
// SMS event and the log line.
func (s *Server) triggerSMSTraced(trace, user string) (bool, string, error) {
	start := time.Now()
	sent, msg, err := s.triggerSMS(user)
	class := "error"
	switch {
	case sent:
		class = "sent"
	case err == nil:
		class = "suppressed"
	}
	if s.met.smsTot != nil {
		s.met.smsTot[class].Inc()
		s.met.smsDur.ObserveSince(start)
	}
	if sent {
		s.publish(eventstream.Event{
			Type: eventstream.TypeSMS, Trace: trace,
			User: strings.ToLower(user), Result: "sent",
		})
	}
	if s.logger != nil {
		s.logger.Info("sms trigger", "component", "otpd", "trace", trace,
			"user", strings.ToLower(user), "result", class)
	}
	return sent, msg, err
}

func (s *Server) triggerSMS(user string) (bool, string, error) {
	user = strings.ToLower(user)
	s.users.Lock(user)
	defer s.users.Unlock(user)

	r, err := s.loadRecord(user)
	if err != nil {
		return false, "", err
	}
	if r.Type != TokenSMS {
		return false, "", ErrNotSMS
	}
	if !r.Active {
		return false, "token deactivated", ErrLockedOut
	}
	now := s.clk.Now()
	if r.LastSMSUnix > 0 && now.Sub(time.Unix(r.LastSMSUnix, 0)) < s.smsValidity() {
		return false, "an SMS has already been sent; enter the code you received", nil
	}
	secret, err := s.secretOf(user, r)
	if err != nil {
		return false, "", err
	}
	code, err := otp.TOTP(secret, now, s.opts)
	if err != nil {
		return false, "", err
	}
	if s.sms == nil {
		return false, "", errors.New("otpd: no SMS sender configured")
	}
	if err := s.sms.SendSMS(r.Phone, fmt.Sprintf("Your %s token code is %s", s.issuer, code)); err != nil {
		s.audit.Record("sms", user, err.Error(), false)
		return false, "", fmt.Errorf("otpd: sms send: %w", err)
	}
	sent := *r
	sent.LastSMSUnix = now.Unix()
	if err := s.saveRecord(&sent); err != nil {
		return false, "", err
	}
	s.audit.Record("sms", user, "code sent", true)
	return true, "an SMS with your token code has been sent", nil
}

// Resync realigns a drifted token given two consecutive codes (admin UI
// operation, §3.1).
func (s *Server) Resync(user, code1, code2 string) error {
	user = strings.ToLower(user)
	s.users.Lock(user)
	defer s.users.Unlock(user)
	cur, err := s.loadRecord(user)
	if err != nil {
		return err
	}
	if cur.Type == TokenTraining {
		return errors.New("otpd: training tokens cannot be resynced")
	}
	secret, err := s.secretOf(user, cur)
	if err != nil {
		return err
	}
	counter, ok := otp.Resync(secret, code1, code2, s.clk.Now(), 1000, s.opts)
	if !ok {
		s.audit.Record("resync", user, "", false)
		return errors.New("otpd: resync failed: codes not consecutive in search window")
	}
	r := *cur
	r.LastCounter = counter
	r.FailCount = 0
	r.Active = true
	if err := s.saveRecord(&r); err != nil {
		return err
	}
	s.audit.Record("resync", user, fmt.Sprintf("counter=%d", counter), true)
	return nil
}

// ResetFailures clears the failure counter and reactivates the token
// ("clear failure counters associated with consecutive unsuccessful MFA
// log in attempts", §3.1).
func (s *Server) ResetFailures(user string) error {
	user = strings.ToLower(user)
	s.users.Lock(user)
	defer s.users.Unlock(user)
	cur, err := s.loadRecord(user)
	if err != nil {
		return err
	}
	r := *cur
	r.FailCount = 0
	r.Active = true
	if err := s.saveRecord(&r); err != nil {
		return err
	}
	s.audit.Record("reset", user, "", true)
	return nil
}

// LockedOutUsers lists users whose tokens are deactivated — the paper's
// internal staff website for troubleshooting (§3.1).
func (s *Server) LockedOutUsers() []string {
	var out []string
	for _, ti := range s.Tokens() {
		if !ti.Active {
			out = append(out, ti.User)
		}
	}
	return out
}

// CurrentCode computes the code a user's device would show right now.
// This is device-side functionality exposed for simulations and tests; it
// never appears in the admin API.
func (s *Server) CurrentCode(user string, deviceDrift time.Duration) (string, error) {
	r, err := s.loadRecord(strings.ToLower(user))
	if err != nil {
		return "", err
	}
	if r.Type == TokenTraining {
		static, err := s.box.Open(r.StaticSealed, []byte("static:"+strings.ToLower(user)))
		if err != nil {
			return "", err
		}
		return string(static), nil
	}
	secret, err := s.secretOf(strings.ToLower(user), r)
	if err != nil {
		return "", err
	}
	return otp.TOTP(secret, s.clk.Now().Add(deviceDrift), s.opts)
}

package main

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"time"

	"openmfa/internal/clock"
	"openmfa/internal/core"
	"openmfa/internal/obs"
	"openmfa/internal/otp"
	"openmfa/internal/pam"
	"openmfa/internal/radius"
	"openmfa/internal/sms"
	"openmfa/internal/sshd"
)

// level is the public entry point a scripted login is driven through. The
// untraced runs only use levelSSHD; the traced run peels the stack by
// driving the same scripts one layer deeper each time.
type level uint8

const (
	levelSSHD   level = iota // sshd.Dial → Close over TCP
	levelPAM                 // pam.Stack.Authenticate, no TCP
	levelRADIUS              // radius.Pool.Exchange against the live farm
	levelOTPD                // otpd.Server.Check / TriggerSMS
)

// root is the layer name of the span put around a whole login at lv.
func (lv level) root() string {
	return [...]string{layerSSHD, layerPAM, layerRADIUSLogin, layerOTPDLogin}[lv]
}

// smsWait bounds how long a scripted SMS user waits for the text; with a
// zero-delay carrier anything near it means the trigger never happened.
const smsWait = 2 * time.Second

// harness drives scripted logins against one live Infrastructure and checks
// each outcome against what the script must produce.
type harness struct {
	inf  *core.Infrastructure
	pop  *population
	sim  *clock.Sim
	opts otp.TOTPOptions
	addr string
	// logger is what the deployment's sshd hands the PAM stack; the
	// PAM-level probe passes the same one.
	logger   *obs.Logger
	loopback net.IP
}

func newHarness(inf *core.Infrastructure, pop *population, sim *clock.Sim, logger *obs.Logger) *harness {
	return &harness{
		inf: inf, pop: pop, sim: sim, logger: logger,
		opts: inf.OTP.OTPOptions(), addr: inf.SSHAddr(),
		loopback: net.IPv4(127, 0, 0, 1),
	}
}

func (h *harness) member(o op) *member {
	if o.kind == kindExempt {
		return &h.pop.gateways[o.user]
	}
	return &h.pop.users[o.user]
}

// script is the client side of one login: it answers prompts the way the
// op says and records what it saw, so the outcome can be checked.
type script struct {
	h *harness
	m *member
	o op

	pwPrompts, tokenPrompts int
	smsNotice               bool
	code                    string // the right code, once known
	inbox                   <-chan sms.Message
}

func (h *harness) newScript(o op) *script {
	s := &script{h: h, m: h.member(o), o: o}
	if o.kind == kindSMS {
		// Register before anything can trigger the text.
		s.inbox = s.m.phone.Wait()
	}
	return s
}

// rightCode is what the member's device shows now. For an SMS user it is
// whatever the virtual phone received.
func (s *script) rightCode() (string, error) {
	switch s.m.kind {
	case kindTraining:
		return s.m.static, nil
	case kindSMS:
		if s.code != "" {
			return s.code, nil // second round: the trigger was suppressed
		}
		select {
		case msg := <-s.inbox:
			if len(msg.Body) < 6 {
				return "", fmt.Errorf("%s: short SMS %q", s.m.name, msg.Body)
			}
			return msg.Body[len(msg.Body)-6:], nil
		case <-time.After(smsWait):
			return "", fmt.Errorf("%s: no SMS within %s", s.m.name, smsWait)
		}
	default:
		return otp.TOTP(s.m.secret, s.h.sim.Now(), s.h.opts)
	}
}

// wrongCode alters right until the server cannot accept it: a changed
// digit may still match another step of the drift window.
func (s *script) wrongCode(right string) string {
	b := []byte(right)
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = '0' + (b[i]-'0'+1)%10
		if s.m.kind == kindTraining {
			break
		}
		if _, ok := otp.ValidateTOTP(s.m.secret, string(b), s.h.sim.Now(), s.h.opts); !ok {
			break
		}
	}
	return string(b)
}

// nextCode is the answer to the n-th token prompt of this login.
func (s *script) nextCode() (code string, wrong bool, err error) {
	s.tokenPrompts++
	right, err := s.rightCode()
	if err != nil {
		return "", false, err
	}
	s.code = right
	if s.o.wrongFirst && s.tokenPrompts == 1 {
		return s.wrongCode(right), true, nil
	}
	return right, false, nil
}

func (s *script) prompt(msg string) (string, error) {
	switch {
	case strings.HasPrefix(msg, "Password"):
		s.pwPrompts++
		return password, nil
	case strings.HasPrefix(msg, "Token Code"):
		code, _, err := s.nextCode()
		return code, err
	}
	return "", fmt.Errorf("%s: unscripted prompt %q", s.m.name, msg)
}

func (s *script) info(msg string) {
	if strings.Contains(msg, "SMS") {
		s.smsNotice = true
	}
}

// rounds is how many times the second factor is presented.
func (s *script) rounds() int {
	if s.o.wrongFirst {
		return 2
	}
	return 1
}

// accepted records a granted login and checks the conversation against the
// script: an exempt login saw no token prompt (the stack ended before
// RADIUS), a wrong-first login was prompted twice, an SMS login was told a
// text was sent.
func (s *script) accepted(lv level) error {
	if s.m.kind != kindExempt && s.m.kind != kindTraining {
		s.m.lastCode = s.code
	}
	if lv > levelPAM {
		return nil // no conversation below PAM
	}
	wantTok := s.rounds()
	if s.m.kind == kindExempt {
		wantTok = 0
	}
	wantPw := s.rounds()
	if s.pwPrompts != wantPw || s.tokenPrompts != wantTok {
		return fmt.Errorf("%s (%s): %d password / %d token prompts, want %d / %d",
			s.m.name, s.m.kind, s.pwPrompts, s.tokenPrompts, wantPw, wantTok)
	}
	if s.m.kind == kindSMS && !s.smsNotice {
		return fmt.Errorf("%s: SMS challenge notice never shown", s.m.name)
	}
	return nil
}

type sshResponder struct{ s *script }

func (r sshResponder) Answer(echo bool, prompt string) (string, error) { return r.s.prompt(prompt) }
func (r sshResponder) Info(msg string)                                 { r.s.info(msg) }

type pamConv struct{ s *script }

func (c pamConv) Prompt(echo bool, msg string) (string, error) { return c.s.prompt(msg) }
func (c pamConv) Info(msg string) error                        { c.s.info(msg); return nil }

// login performs o at lv and returns nil only if the stack did exactly what
// the script expects. tr (nil when untraced) receives one root span for the
// login and, below PAM, one child span per call into the layer.
func (h *harness) login(o op, lv level, tr *tracer, id int32) error {
	s := h.newScript(o)
	var err error
	sp := tr.begin(lv.root(), id, noParent)
	switch lv {
	case levelSSHD:
		err = h.viaSSHD(s)
	case levelPAM:
		err = h.viaPAM(s)
	case levelRADIUS:
		err = h.viaRADIUS(s, tr, id, sp)
	case levelOTPD:
		err = h.viaOTPD(s, tr, id, sp)
	}
	tr.end(sp)
	if err != nil {
		return err
	}
	return s.accepted(lv)
}

func (h *harness) viaSSHD(s *script) error {
	c, err := sshd.Dial(h.addr, sshd.DialOptions{
		User: s.m.name, TTY: s.m.kind != kindExempt, Responder: sshResponder{s},
	})
	if err != nil {
		return fmt.Errorf("%s (%s): %w", s.m.name, s.m.kind, err)
	}
	return c.Close()
}

// viaPAM runs the stack the way sshd's connection handler does: a fresh
// context per attempt, up to the retry budget.
func (h *harness) viaPAM(s *script) error {
	trace := obs.NewTraceID()
	err := errors.New("no attempt made")
	for attempt := 0; attempt < sshd.DefaultMaxAuthTries && err != nil; attempt++ {
		err = h.inf.Stack.Authenticate(&pam.Context{
			User: s.m.name, RemoteAddr: h.loopback, Service: "sshd",
			Conv: pamConv{s}, Now: h.sim.Now, Trace: trace,
			Metrics: h.inf.Obs, Logger: h.logger,
			Spans: h.inf.Spans, Events: h.inf.Events,
		})
	}
	if err != nil {
		return fmt.Errorf("%s (%s): %w", s.m.name, s.m.kind, err)
	}
	return nil
}

// viaRADIUS sends what pam_mfa_token sends: for an SMS user a null request
// first, then the code, once per round.
func (h *harness) viaRADIUS(s *script, tr *tracer, id, parent int32) error {
	if s.m.kind == kindExempt {
		return nil // an exempt login never reaches RADIUS
	}
	pool := h.inf.Pool
	exchange := func(code string, state []byte) (*radius.Packet, error) {
		sp := tr.begin(layerRADIUS, id, parent)
		defer tr.end(sp)
		return pool.Exchange(func(req *radius.Packet) {
			req.AddString(radius.AttrUserName, s.m.name)
			if hidden, err := radius.HidePassword(code, pool.Secret(), req.Authenticator); err == nil {
				req.Add(radius.AttrUserPassword, hidden)
			}
			if state != nil {
				req.Add(radius.AttrState, state)
			}
		})
	}
	for round := 0; round < s.rounds(); round++ {
		var state []byte
		if s.m.kind == kindSMS {
			resp, err := exchange("", nil)
			if err != nil {
				return fmt.Errorf("%s: null request: %w", s.m.name, err)
			}
			if resp.Code != radius.AccessChallenge {
				return fmt.Errorf("%s: null request answered %v, want a challenge", s.m.name, resp.Code)
			}
			state, _ = resp.Get(radius.AttrState)
		}
		code, wrong, err := s.nextCode()
		if err != nil {
			return err
		}
		resp, err := exchange(code, state)
		if err != nil {
			return fmt.Errorf("%s: exchange: %w", s.m.name, err)
		}
		want := radius.AccessAccept
		if wrong {
			want = radius.AccessReject
		}
		if resp.Code != want {
			return fmt.Errorf("%s (%s): RADIUS answered %v, want %v", s.m.name, s.m.kind, resp.Code, want)
		}
	}
	return nil
}

// viaOTPD calls the validation platform the way its RADIUS handler does.
func (h *harness) viaOTPD(s *script, tr *tracer, id, parent int32) error {
	if s.m.kind == kindExempt {
		return nil
	}
	srv := h.inf.OTP
	for round := 0; round < s.rounds(); round++ {
		if s.m.kind == kindSMS {
			sp := tr.begin(layerSMSTrigger, id, parent)
			sent, _, err := srv.TriggerSMS(s.m.name)
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("%s: trigger: %w", s.m.name, err)
			}
			if sent != (round == 0) {
				return fmt.Errorf("%s: round %d trigger sent=%v", s.m.name, round, sent)
			}
		}
		code, wrong, err := s.nextCode()
		if err != nil {
			return err
		}
		layer := layerOTPD
		if wrong {
			layer = layerOTPDFail
		}
		sp := tr.begin(layer, id, parent)
		res, err := srv.Check(s.m.name, code)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s: check: %w", s.m.name, err)
		}
		if res.OK == wrong {
			return fmt.Errorf("%s (%s): check OK=%v with wrong=%v", s.m.name, s.m.kind, res.OK, wrong)
		}
	}
	return nil
}

// verifyState asserts from outside, after a workload, that the stack really
// authenticated: every member's last accepted code now replays as rejected
// (so each record's replay mark advanced), and nobody is locked out. It
// returns the number of checks made and the failures.
func (h *harness) verifyState() (checks int, failures []error) {
	for i := range h.pop.users {
		u := &h.pop.users[i]
		if u.kind == kindTraining {
			continue // a static code is replayable by design
		}
		checks++
		if u.lastCode == "" {
			failures = append(failures, fmt.Errorf("%s never completed a login", u.name))
			continue
		}
		res, err := h.inf.OTP.Check(u.name, u.lastCode)
		if err != nil {
			failures = append(failures, fmt.Errorf("%s: replay check: %w", u.name, err))
		} else if res.OK {
			failures = append(failures, fmt.Errorf("%s: consumed code %s accepted again", u.name, u.lastCode))
		}
	}
	checks++
	if locked := h.inf.OTP.LockedOutUsers(); len(locked) > 0 {
		failures = append(failures, fmt.Errorf("%d users locked out, first %s", len(locked), locked[0]))
	}
	return checks, failures
}

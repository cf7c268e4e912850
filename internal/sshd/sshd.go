// Package sshd implements the login-node daemon: the SSH-substitute front
// door that performs public-key first-factor verification, hands the rest
// of the authentication decision to the PAM stack (Figure 1), writes the
// auth log records that both the pubkey PAM module and the §4.1
// information-gathering pipeline consume, enforces the password retry
// budget, and supports connection multiplexing (§5: "Perhaps most popular
// of all was the adoption of SSH multiplexing which allowed for one
// connection to be established via MFA and subsequent connections to the
// same host to utilize the already existing SSH connection").
package sshd

import (
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"openmfa/internal/authlog"
	"openmfa/internal/clock"
	"openmfa/internal/eventstream"
	"openmfa/internal/idm"
	"openmfa/internal/obs"
	"openmfa/internal/pam"
	"openmfa/internal/risk"
	"openmfa/internal/sshwire"
	"openmfa/internal/syncutil"
)

// DefaultMaxAuthTries mirrors OpenSSH's default of three interactive
// attempts before disconnect ("up to a maximum of two more times", §3.4).
const DefaultMaxAuthTries = 3

// DefaultAuthTimeout mirrors OpenSSH's LoginGraceTime: a client that has
// not completed authentication within it is disconnected. Before this
// existed a stalled client held its handler goroutine forever.
const DefaultAuthTimeout = 2 * time.Minute

// DefaultIdleTimeout disconnects authenticated sessions with no frames in
// either direction for this long (OpenSSH's ClientAliveInterval analog).
const DefaultIdleTimeout = 30 * time.Minute

// DefaultMaxConns caps concurrent connections so a connection flood
// degrades into fast rejections instead of unbounded goroutine growth.
const DefaultMaxConns = 4096

// Server is a login node.
type Server struct {
	// IDM resolves accounts and authorized keys (required).
	IDM *idm.IDM
	// AuthLog receives auth events (required). It must be the same log
	// the PAM pubkey module reads.
	AuthLog *authlog.Log
	// Stack is the PAM configuration (required).
	Stack *pam.Stack
	// Banner is shown before authentication (phase-3 deployments updated
	// it with MFA instructions, §4.2).
	Banner string
	// AuthTimeout bounds the whole pre-auth conversation (hello through
	// PAM verdict). Zero means DefaultAuthTimeout; negative disables the
	// deadline. It is enforced in wall-clock time regardless of Clock,
	// because net.Conn deadlines are wall-clock by contract.
	AuthTimeout time.Duration
	// Listen binds the server socket; nil means net.Listen. Chaos tests
	// inject a faultnet binder here.
	Listen func(network, addr string) (net.Listener, error)
	// Clock defaults to real time. It feeds auth-log timestamps and the
	// PAM stack; I/O deadlines deliberately ignore it (see AuthTimeout).
	Clock clock.Clock
	// Risk, when set, receives login outcomes so the dynamic-risk
	// engine's history tracks reality. Pair it with a Stack built by
	// pam.NewSSHDStack with the same engine as SSHDStackConfig.Risk.
	Risk *risk.Engine
	// Obs, when set, receives connection and auth-outcome metrics; it is
	// also handed to the PAM stack via the per-attempt Context.
	Obs *obs.Registry
	// Logger, when set, receives structured auth-outcome lines
	// (component=sshd) carrying the per-connection trace ID.
	Logger *obs.Logger
	// Spans, when set, records an sshd.conversation span per connection
	// (with per-module and RADIUS-RTT children from the PAM stack) under
	// the connection's trace ID.
	Spans *obs.SpanStore
	// Events, when set, receives one typed login event per authentication
	// decision on the operational analytics bus.
	Events *eventstream.Bus

	// idleTimeout and maxConns, when set, replace DefaultIdleTimeout and
	// DefaultMaxConns; tests lower them.
	idleTimeout time.Duration
	maxConns    int

	mu      sync.Mutex
	ln      net.Listener
	closed  bool
	conns   map[net.Conn]struct{}
	now     func() time.Time // Clock's Now, made once for every PAM attempt
	workers syncutil.Workers[conn]

	// Counters for tests and metrics.
	accepted atomic.Int64
	rejected atomic.Int64
}

func (s *Server) clk() clock.Clock {
	if s.Clock != nil {
		return s.Clock
	}
	return clock.Real{}
}

func (s *Server) authTimeout() time.Duration {
	switch {
	case s.AuthTimeout > 0:
		return s.AuthTimeout
	case s.AuthTimeout < 0:
		return 0 // disabled
	}
	return DefaultAuthTimeout
}

func (s *Server) idleLimit() time.Duration {
	if s.idleTimeout > 0 {
		return s.idleTimeout
	}
	return DefaultIdleTimeout
}

func (s *Server) connLimit() int {
	if s.maxConns > 0 {
		return s.maxConns
	}
	return DefaultMaxConns
}

// noteIOErr counts deadline expiries so operators can tell a stalled-peer
// storm from ordinary disconnects.
func (s *Server) noteIOErr(err error) {
	var ne net.Error
	if err == nil || !errors.As(err, &ne) || !ne.Timeout() {
		return
	}
	s.Obs.Counter("sshd_io_timeouts_total").Inc() // nil-safe, as every obs metric
	s.Logger.Warn("io timeout", "component", "sshd")
}

// Accepted reports successful logins since start.
func (s *Server) Accepted() int64 { return s.accepted.Load() }

// Rejected reports failed login attempts since start.
func (s *Server) Rejected() int64 { return s.rejected.Load() }

// ListenAndServe binds addr and serves until Close; it returns once bound.
func (s *Server) ListenAndServe(addr string) error {
	listen := s.Listen
	if listen == nil {
		listen = net.Listen
	}
	ln, err := listen("tcp", addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("sshd: server closed")
	}
	s.ln = ln
	if s.conns == nil {
		s.conns = make(map[net.Conn]struct{})
	}
	if s.now == nil {
		s.now = s.clk().Now
	}
	s.mu.Unlock()
	// A stalled client never holds up a fresh one (see syncutil.Workers).
	s.workers.Start(func(c *conn) bool {
		var err error
		c.raw, err = ln.Accept()
		return err == nil
	}, s.admit)
	return nil
}

// admit serves the connection c accepted, unless the server is closed or
// at its connection limit.
func (s *Server) admit(c *conn) {
	raw := c.raw
	s.mu.Lock()
	full := !s.closed && len(s.conns) >= s.connLimit()
	admitted := !s.closed && !full
	if admitted {
		s.conns[raw] = struct{}{}
	}
	s.mu.Unlock()
	switch {
	case admitted:
		s.serveConn(c, raw)
		s.mu.Lock()
		delete(s.conns, raw)
		s.mu.Unlock()
	case full:
		// Count before closing, so a peer that sees the close also
		// sees the rejection counted.
		if s.Obs != nil {
			s.Obs.Counter("sshd_conns_rejected_total", "reason", "capacity").Inc()
		}
		raw.Close()
		s.Logger.Warn("connection rejected at capacity",
			"component", "sshd", "max_conns", s.connLimit())
	default:
		raw.Close()
	}
	*c = conn{} // no byte of it, a password included, stays in an idle worker
}

// Addr returns the bound address.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops accepting, disconnects active sessions, and waits for
// connection handlers to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.workers.Wait()
	return nil
}

// conn is one connection's state, owned by the worker serving it and
// zeroed after each connection: the connection, its frame codec, the
// pubkey nonce, and the PAM context that every attempt zeroes and
// refills. It is the PAM conversation over the wire, reading each answer
// into one reused frame (a login is several prompts, every retry restarts
// them all).
type conn struct {
	raw   net.Conn
	wc    sshwire.Conn
	m     sshwire.Msg
	nonce [32]byte
	pam   pam.Context
}

func (c *conn) Prompt(echo bool, msg string) (string, error) {
	if err := c.wc.Send(&sshwire.Msg{T: sshwire.TPrompt, Msg: msg, Echo: echo}); err != nil {
		return "", err
	}
	if err := c.wc.RecvInto(&c.m); err != nil {
		return "", err
	}
	if c.m.T != sshwire.TAnswer {
		return "", fmt.Errorf("sshd: expected answer, got %q", c.m.T)
	}
	return c.m.Value, nil
}

func (c *conn) Info(msg string) error {
	return c.wc.Send(&sshwire.Msg{T: sshwire.TInfo, Msg: msg})
}

// peer is the remote IP, port and printed address of an accepted
// connection; an address that is not TCP has no IP or port.
func peer(addr net.Addr) (net.IP, int, string) {
	if a, ok := addr.(*net.TCPAddr); ok {
		return a.IP, a.Port, a.IP.String()
	}
	if addr == nil {
		return nil, 0, ""
	}
	return nil, 0, addr.String()
}

func (s *Server) serveConn(c *conn, raw net.Conn) {
	defer raw.Close()
	// Every connection gets a trace ID; it tags this layer's log lines,
	// rides into the PAM stack, and crosses the RADIUS wire inside a
	// Proxy-State attribute so the back end's lines join the same trace.
	trace := obs.NewTraceID()
	s.Obs.Counter("sshd_connections_total").Inc()
	open := s.Obs.Gauge("sshd_open_connections")
	open.Add(1)
	defer open.Add(-1)
	wc := &c.wc
	wc.Reset(raw)
	ip, port, addr := peer(raw.RemoteAddr()) // addr is formatted once for every log line, event and PAM module

	// LoginGraceTime: one wall-clock deadline covers the entire pre-auth
	// conversation, so a client that stalls at any phase (or a network
	// that eats our prompts) cannot pin this worker.
	if d := s.authTimeout(); d > 0 {
		raw.SetDeadline(time.Now().Add(d))
	}

	hello, err := wc.Recv()
	if err != nil || hello.T != sshwire.THello || hello.User == "" {
		s.noteIOErr(err)
		wc.Send(&sshwire.Msg{T: sshwire.TError, Msg: "expected hello"})
		return
	}
	user := strings.ToLower(hello.User)

	// Session nonce for pubkey proof; the banner rides along.
	if _, err := rand.Read(c.nonce[:]); err != nil {
		return
	}
	if err := wc.Send(&sshwire.Msg{T: sshwire.TNonce, Nonce: c.nonce[:], Banner: s.Banner}); err != nil {
		return
	}

	// Optional public-key phase: zero or more attempts, then the client
	// proceeds (by answering prompts) — like ssh trying each identity.
	m, err := wc.Recv()
	if err != nil {
		return
	}
	for m.T == sshwire.TPubkey {
		if s.verifyPubkey(user, c.nonce[:], m.Pub, m.Sig) {
			s.AuthLog.Append(authlog.Event{
				Time: s.clk().Now(), Type: authlog.AcceptedPublickey,
				User: user, Addr: addr, Port: port,
				TTY: hello.TTY, Shell: hello.Shell,
				Detail: fmt.Sprintf("ED25519 %x", m.Pub[:8]),
			})
			if err := wc.Send(&sshwire.Msg{T: sshwire.TPubkeyOK}); err != nil {
				return
			}
		} else {
			if err := wc.Send(&sshwire.Msg{T: sshwire.TPubkeyNo}); err != nil {
				return
			}
		}
		// Client either tries another key or signals readiness for the
		// PAM phase with an empty answer frame.
		m, err = wc.Recv()
		if err != nil {
			s.noteIOErr(err)
			return
		}
	}
	if m.T != sshwire.TAnswer { // "ready" sentinel
		wc.Send(&sshwire.Msg{T: sshwire.TError, Msg: "expected ready"})
		return
	}

	// PAM phase with the retry budget: "the PAM stack is restarted and
	// the user is prompted once again ... before SSH disconnect."
	authStart := time.Now()
	// The conversation span covers the whole PAM phase (all retry
	// attempts); each module and RADIUS exchange hangs off it as a child.
	span := s.Spans.Start(trace, "sshd.conversation")
	span.SetAttr("user", user)
	var authErr error
	for attempt := 0; attempt < DefaultMaxAuthTries; attempt++ {
		c.pam = pam.Context{
			User: user, RemoteAddr: ip, Addr: addr, Service: "sshd",
			Conv: c, Now: s.now,
			Trace: trace, Metrics: s.Obs, Logger: s.Logger,
			Spans: s.Spans, Span: span, Events: s.Events,
		}
		authErr = s.Stack.Authenticate(&c.pam)
		if authErr == nil {
			break
		}
		if s.Risk != nil {
			s.Risk.RecordFailure(user, ip, s.clk().Now())
		}
		s.AuthLog.Append(authlog.Event{
			Time: s.clk().Now(), Type: authlog.FailedPassword,
			User: user, Addr: addr, Port: port,
			TTY: hello.TTY, Shell: hello.Shell,
		})
	}
	result := "accept"
	if authErr != nil {
		result = "reject"
	}
	span.SetAttr("result", result)
	span.End()
	if s.Obs != nil {
		s.Obs.Histogram("sshd_auth_duration_seconds", nil).ObserveSince(authStart)
		s.Obs.Counter("sshd_auth_total", "result", result).Inc()
	}
	if s.Logger != nil {
		s.Logger.Info("auth", "component", "sshd", "trace", trace,
			"user", user, "addr", addr, "result", result)
	}
	if s.Events != nil {
		s.Events.Publish(eventstream.Event{
			Time: s.clk().Now(), Type: eventstream.TypeLogin, Component: "sshd",
			Trace: trace, User: user, Addr: addr, Result: result,
			MFA: c.pam.MFAMethod != "" && authErr == nil, Method: c.pam.MFAMethod,
			TTY: hello.TTY, Shell: hello.Shell,
			Duration: time.Since(authStart),
		})
	}
	if authErr != nil {
		s.rejected.Add(1)
		wc.Send(&sshwire.Msg{T: sshwire.TResult, OK: false, Msg: "Permission denied"})
		return
	}
	if s.Risk != nil {
		s.Risk.RecordSuccess(user, ip, s.clk().Now())
	}
	s.accepted.Add(1)
	s.AuthLog.Append(authlog.Event{
		Time: s.clk().Now(), Type: authlog.SessionOpen,
		User: user, Addr: addr, Port: port,
		TTY: hello.TTY, Shell: hello.Shell,
	})
	if err := wc.Send(&sshwire.Msg{T: sshwire.TResult, OK: true, Msg: "welcome"}); err != nil {
		return
	}

	// Auth is done: trade the login-grace deadline for idle policing.
	raw.SetDeadline(time.Time{})

	// Session phase: exec requests and multiplexed channels, none of
	// which re-authenticate.
	s.session(raw, wc, user, addr, port, hello)
}

func (s *Server) verifyPubkey(user string, nonce, pub, sig []byte) bool {
	if len(pub) != ed25519.PublicKeySize || len(sig) != ed25519.SignatureSize {
		return false
	}
	keys, err := s.IDM.PublicKeys(user)
	if err != nil {
		return false
	}
	candidate := ed25519.PublicKey(pub)
	authorized := false
	for _, k := range keys {
		if k.Equal(candidate) {
			authorized = true
			break
		}
	}
	if !authorized {
		return false
	}
	return ed25519.Verify(candidate, nonce, sig)
}

func (s *Server) session(raw net.Conn, wc *sshwire.Conn, user, addr string, port int, hello *sshwire.Msg) {
	idle := s.idleLimit()
	var m sshwire.Msg // reused across the session's frames
	for {
		raw.SetReadDeadline(time.Now().Add(idle))
		if err := wc.RecvInto(&m); err != nil {
			s.noteIOErr(err)
			return
		}
		switch m.T {
		case sshwire.TExec:
			out := s.exec(user, m.Cmd)
			if err := wc.Send(&sshwire.Msg{T: sshwire.TExecOut, OK: true, Out: out}); err != nil {
				return
			}
		case sshwire.TChannel:
			// Multiplexing: a new channel on an authenticated
			// connection opens a session without touching PAM.
			s.AuthLog.Append(authlog.Event{
				Time: s.clk().Now(), Type: authlog.SessionOpen,
				User: user, Addr: addr, Port: port,
				TTY: hello.TTY, Shell: hello.Shell, Detail: "mux",
			})
			if err := wc.Send(&sshwire.Msg{T: sshwire.TChannelOK}); err != nil {
				return
			}
		case sshwire.TBye:
			s.AuthLog.Append(authlog.Event{
				Time: s.clk().Now(), Type: authlog.SessionClose,
				User: user, Addr: addr, Port: port,
			})
			return
		default:
			wc.Send(&sshwire.Msg{T: sshwire.TError, Msg: "unexpected " + m.T})
			return
		}
	}
}

// exec simulates a tiny command set so examples and the rollout simulator
// can model data movement and job management.
func (s *Server) exec(user, cmd string) string {
	fields := strings.Fields(cmd)
	if len(fields) == 0 {
		return ""
	}
	switch fields[0] {
	case "hostname":
		return "login1.hpc.example"
	case "whoami":
		return user
	case "date":
		return s.clk().Now().UTC().Format(time.RFC3339)
	case "squeue":
		return "JOBID PARTITION NAME USER ST\n123 normal job1 " + user + " R"
	case "scp", "rsync", "sftp":
		return "transfer complete"
	default:
		return "sh: " + fields[0] + ": command simulated"
	}
}

// Package core assembles the complete MFA infrastructure the paper
// describes: identity management and directory, the OTP platform with its
// digest-protected admin REST API, a farm of RADIUS servers behind a
// round-robin pool, the exemption list, the Figure 1 PAM stack, the
// SSH-substitute login node, the SMS gateway, and the user portal — wired
// exactly as in §3's architecture (PAM → RADIUS → otpd; portal → admin
// REST → otpd; otpd → SMS gateway → phones).
//
// It is the library's top-level entry point: the examples, cmd/sshsim, the
// login benchmark (bench/) and both evaluation simulators
// (internal/rollout) run on an Infrastructure from New.
package core

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"openmfa/internal/accessctl"
	"openmfa/internal/authlog"
	"openmfa/internal/authwatch"
	"openmfa/internal/clock"
	"openmfa/internal/cryptoutil"
	"openmfa/internal/eventstream"
	"openmfa/internal/faultnet"
	"openmfa/internal/flightrec"
	"openmfa/internal/httpdigest"
	"openmfa/internal/idm"
	"openmfa/internal/obs"
	"openmfa/internal/obs/prof"
	"openmfa/internal/obs/slo"
	"openmfa/internal/otp"
	"openmfa/internal/otpd"
	"openmfa/internal/pam"
	"openmfa/internal/portal"
	"openmfa/internal/radius"
	"openmfa/internal/risk"
	"openmfa/internal/sms"
	"openmfa/internal/sshd"
	"openmfa/internal/store"
	"openmfa/internal/store/repl"
)

// Options configures New. The zero value is a working in-memory deployment
// with two RADIUS servers and full enforcement.
type Options struct {
	// Clock drives every component; nil means real time.
	Clock clock.Sleeper
	// DataDir persists the stores on disk; empty means in-memory.
	DataDir string
	// EncryptionKey seals OTP secrets; nil generates a random key.
	EncryptionKey []byte
	// RadiusServers is the size of the RADIUS farm ("a handful of
	// servers", §3.2); zero means 2.
	RadiusServers int
	// LockoutThreshold overrides the otpd failure-deactivation
	// threshold; zero keeps the paper's default of 20.
	LockoutThreshold int
	// OTP overrides the TOTP parameters; zero fields keep the
	// deployment defaults (see otpd.Config.OTP).
	OTP otp.TOTPOptions
	// ExemptionRules is the initial accessctl configuration.
	ExemptionRules string
	// Mode is the initial token-module enforcement mode; empty means
	// full. Countdown's deadline and info URL are set on the running
	// deployment's ModeSwitch.
	Mode pam.Mode
	// Banner is the sshd pre-auth banner.
	Banner string
	// Carrier overrides the SMS delivery model.
	Carrier *sms.CarrierModel
	// Seed makes SMS delivery deterministic.
	Seed int64
	// Email captures portal out-of-band mail; nil discards it.
	Email portal.EmailSender
	// Obs, when set, is the shared metrics registry every layer records
	// into (sshd, PAM, RADIUS server/client, otpd, portal). nil disables
	// metrics at a cost of one pointer test per site.
	Obs *obs.Registry
	// Logger, when set, receives structured trace-tagged log lines from
	// every layer.
	Logger *obs.Logger
	// Spans, when set, records one span per leg of every login (sshd
	// conversation, PAM modules, RADIUS round trip, otpd check), all
	// linked by the connection's trace ID.
	Spans *obs.SpanStore
	// Events, when set, is the operational analytics bus every layer
	// publishes typed auth events onto (login results, MFA outcomes, SMS
	// sends, lockouts, enrolments).
	Events *eventstream.Bus
	// Risk, when set, is the adaptive-MFA engine (DESIGN.md §14): the PAM
	// stack gains a risk gate after password verification (skip the second
	// factor for low-risk established logins, force it despite exemptions
	// on elevated risk, deny outright on critical risk), and the login
	// node feeds every outcome back into the engine's feature store. The
	// caller constructs it (typically with the shared Obs and Events) and
	// owns its lifecycle.
	Risk *risk.Engine
	// Watch, when set, is mounted on the portal's ops endpoints: its
	// /debug/authwatch handler joins the portal mux (requires Obs) and its
	// alert state degrades the portal /healthz. The caller attaches the
	// watcher to Events and owns its lifecycle.
	Watch *authwatch.Watcher
	// FlightRec, when set, is mounted on the portal's ops endpoints at
	// /debug/flightrec. The caller constructs the recorder over Events,
	// Spans, and an optional LogTee, and owns its lifecycle (Stop).
	FlightRec *flightrec.Recorder
	// SLO, when set, is mounted at /debug/slo and its Health check joins
	// the portal /healthz (a page-severity fast burn degrades the
	// deployment). The caller registers objectives and owns the
	// evaluation cadence (Evaluate or Start/Stop).
	SLO *slo.Engine
	// Prof, when set, is mounted at /debug/prof and /debug/prof/capture
	// on the portal's ops endpoints: the continuous profiler + incident
	// engine. The caller registers triggers (typically against SLO.Health,
	// Watch.Health, and OTPStore().Err) and owns the lifecycle
	// (Start/Stop).
	Prof *prof.Engine
	// FaultNet, when set, routes every network hop through the fault
	// injection layer: RADIUS datagrams (client dials and server sockets)
	// and the login node's TCP listener. Chaos tests use it to model
	// degraded networks; nil means the real network.
	FaultNet *faultnet.Network
	// RadiusTimeout is each pool member's per-attempt timeout; zero
	// means 2 seconds.
	RadiusTimeout time.Duration
	// RadiusRetries is each member's retransmit budget, with
	// radius.Client sentinel semantics (zero keeps 1 retry here,
	// radius.NoRetry means single-shot).
	RadiusRetries int
	// SSHAuthTimeout passes through to the login node (sshd.Server
	// sentinel semantics; zero keeps its default).
	SSHAuthTimeout time.Duration
	// StoreSync fsyncs every committed batch in the on-disk stores.
	StoreSync bool
	// StoreGroupCommit coalesces concurrent committers into shared fsyncs
	// when StoreSync is set.
	StoreGroupCommit bool
	// CoalesceWrites batches concurrent otpd record saves into shared WAL
	// frames (one frame per burst instead of one per login); composes
	// with StoreGroupCommit, which only shares the fsyncs.
	CoalesceWrites bool
	// ReplListen makes this deployment the replication leader for the
	// otpd store: it bumps the persisted fencing epoch and streams
	// committed WAL frames to followers on this TCP address. Mutually
	// exclusive with ReplFollow.
	ReplListen string
	// ReplFollow makes this deployment a standby: the otpd store is put
	// into follower mode (local writes refused, reads stay live) and
	// replays the leader's log from this address. Promotion is a restart
	// with ReplListen set (or repl.StartLeader on the same store).
	ReplFollow string
	// ReplMinSync is the number of follower acknowledgements a leader
	// requires before a commit returns (synchronous replication). Zero
	// ships asynchronously. Only meaningful with ReplListen.
	ReplMinSync int
	// ReplSyncTimeout bounds the ReplMinSync wait; past it the write —
	// and therefore the login consuming the OTP — fails closed. Zero
	// keeps the repl default (2s).
	ReplSyncTimeout time.Duration
}

// ModeSwitch is a mutable pam.ConfigProvider: operators flip enforcement
// tiers during production ("any of these modes may be set during
// production operation").
type ModeSwitch struct {
	mu  sync.Mutex
	cfg pam.TokenConfig
}

// TokenConfig implements pam.ConfigProvider.
func (m *ModeSwitch) TokenConfig() pam.TokenConfig {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cfg
}

// Set replaces the configuration.
func (m *ModeSwitch) Set(cfg pam.TokenConfig) {
	m.mu.Lock()
	m.cfg = cfg
	m.mu.Unlock()
}

// SetMode changes only the enforcement mode.
func (m *ModeSwitch) SetMode(mode pam.Mode) {
	m.mu.Lock()
	m.cfg.Mode = mode
	m.mu.Unlock()
}

// Infrastructure is the running deployment.
type Infrastructure struct {
	Clock   clock.Sleeper
	IDM     *idm.IDM
	OTP     *otpd.Server
	AuthLog *authlog.Log
	ACL     *accessctl.List
	Pool    *radius.Pool
	Stack   *pam.Stack
	SSHD    *sshd.Server
	SMS     *sms.Gateway
	Portal  *portal.Portal
	Mode    *ModeSwitch
	Admin   *otpd.AdminClient
	// Obs is the shared registry (Options.Obs, or the nil no-op).
	Obs *obs.Registry
	// Spans is the shared span store (Options.Spans; nil disables tracing).
	Spans *obs.SpanStore
	// Events is the analytics bus (Options.Events; nil disables events).
	Events *eventstream.Bus
	// ReplLeader / ReplFollower are the otpd store's replication
	// endpoints when Options.ReplListen / ReplFollow were set; nil
	// otherwise. Chaos tests reach through them to kill a leader or
	// promote a standby.
	ReplLeader   *repl.Leader
	ReplFollower *repl.Follower

	radiusServers []*radius.Server
	adminHTTP     *http.Server
	portalHTTP    *http.Server
	adminAddr     string
	portalAddr    string
	sshAddr       string
	stores        []*store.Store
	otpStore      *store.Store
}

// OTPStore exposes the otpd backing store — the replicated one. A chaos
// harness (or an embedder promoting a standby in process) hands it to
// repl.StartLeader; everything else should go through inf.OTP.
func (inf *Infrastructure) OTPStore() *store.Store { return inf.otpStore }

// New builds and starts an Infrastructure.
func New(opts Options) (*Infrastructure, error) {
	clk := opts.Clock
	if clk == nil {
		clk = clock.Real{}
	}
	key := opts.EncryptionKey
	if key == nil {
		key = cryptoutil.RandomBytes(32)
	}
	inf := &Infrastructure{Clock: clk, Obs: opts.Obs, Spans: opts.Spans, Events: opts.Events}
	// fail releases whatever is already open or listening: every error
	// return below goes through it.
	fail := func(err error) (*Infrastructure, error) {
		inf.Close()
		return nil, err
	}

	newStore := func(name string) (*store.Store, error) {
		if opts.DataDir == "" {
			s := store.OpenMemory()
			inf.stores = append(inf.stores, s)
			return s, nil
		}
		s, err := store.Open(opts.DataDir+"/"+name, store.Options{
			Sync:        opts.StoreSync,
			GroupCommit: opts.StoreGroupCommit,
			Obs:         opts.Obs,
		})
		if err != nil {
			return nil, err
		}
		inf.stores = append(inf.stores, s)
		return s, nil
	}

	idmStore, err := newStore("idm")
	if err != nil {
		return fail(err)
	}
	otpStore, err := newStore("otpd")
	if err != nil {
		return fail(err)
	}
	inf.otpStore = otpStore

	// Replication endpoints for the otpd store (the one holding consumed
	// OTP counters and lockout counts — the state a failover must not
	// lose). Started before anything can write so a standby never sees an
	// un-fenced local commit.
	if opts.ReplListen != "" && opts.ReplFollow != "" {
		return fail(fmt.Errorf("core: ReplListen and ReplFollow are mutually exclusive"))
	}
	if opts.ReplListen != "" {
		lo := repl.LeaderOptions{
			Addr:        opts.ReplListen,
			MinSync:     opts.ReplMinSync,
			SyncTimeout: opts.ReplSyncTimeout,
			Obs:         opts.Obs,
			Logger:      opts.Logger,
		}
		if opts.FaultNet != nil {
			lo.Listen = opts.FaultNet.Listen
		}
		inf.ReplLeader, err = repl.StartLeader(otpStore, lo)
		if err != nil {
			return fail(err)
		}
	}
	if opts.ReplFollow != "" {
		fo := repl.FollowerOptions{
			Addr:   opts.ReplFollow,
			Obs:    opts.Obs,
			Logger: opts.Logger,
		}
		if opts.FaultNet != nil {
			fo.Dial = opts.FaultNet.Dial
		}
		inf.ReplFollower, err = repl.StartFollower(otpStore, fo)
		if err != nil {
			return fail(err)
		}
	}

	inf.IDM = idm.New(idmStore, clk)

	// SMS gateway with the default (or supplied) carrier model.
	carrier := sms.DefaultCarrier()
	if opts.Carrier != nil {
		carrier = *opts.Carrier
	}
	inf.SMS = sms.NewGateway(clk, carrier, opts.Seed)
	inf.SMS.Events = opts.Events

	inf.OTP, err = otpd.New(otpd.Config{
		DB:               otpStore,
		EncryptionKey:    key,
		Clock:            clk,
		Issuer:           "HPC",
		LockoutThreshold: opts.LockoutThreshold,
		OTP:              opts.OTP,
		CoalesceWrites:   opts.CoalesceWrites,
		Obs:              opts.Obs,
		Logger:           opts.Logger,
		Spans:            opts.Spans,
		Events:           opts.Events,
		SMS: otpd.SMSSenderFunc(func(phone, body string) error {
			_, err := inf.SMS.Send(phone, "512000", body)
			return err
		}),
	})
	if err != nil {
		return fail(err)
	}

	inf.AuthLog, err = authlog.New("", 65536)
	if err != nil {
		return fail(err)
	}

	rules, err := accessctl.Parse(opts.ExemptionRules)
	if err != nil {
		return fail(err)
	}
	inf.ACL = accessctl.NewList(rules)

	// RADIUS farm.
	n := opts.RadiusServers
	if n == 0 {
		n = 2
	}
	secret := cryptoutil.RandomBytes(16)
	var addrs []string
	for i := 0; i < n; i++ {
		rs := &radius.Server{
			Secret:  secret,
			Handler: &otpd.RadiusHandler{OTP: inf.OTP},
			Obs:     opts.Obs,
			Logger:  opts.Logger,
			Events:  opts.Events,
			Now:     clk.Now,
		}
		if opts.FaultNet != nil {
			rs.ListenPacket = opts.FaultNet.ListenPacket
		}
		if err := rs.ListenAndServe("127.0.0.1:0"); err != nil {
			return fail(err)
		}
		inf.radiusServers = append(inf.radiusServers, rs)
		addrs = append(addrs, rs.Addr().String())
	}
	radiusTimeout := opts.RadiusTimeout
	if radiusTimeout == 0 {
		radiusTimeout = 2 * time.Second
	}
	radiusRetries := opts.RadiusRetries
	if radiusRetries == 0 {
		radiusRetries = 1
	}
	inf.Pool = radius.NewPool(addrs, secret, radiusTimeout, radiusRetries)
	inf.Pool.Clock = clk
	inf.Pool.SetObs(opts.Obs)
	if opts.FaultNet != nil {
		inf.Pool.SetDial(opts.FaultNet.Dial)
	}

	// Enforcement mode + PAM stack.
	mode := opts.Mode
	if mode == "" {
		mode = pam.ModeFull
	}
	inf.Mode = &ModeSwitch{}
	inf.Mode.SetMode(mode)
	inf.Stack = pam.NewSSHDStack(pam.SSHDStackConfig{
		AuthLog:    inf.AuthLog,
		IDM:        inf.IDM,
		Exemptions: inf.ACL,
		TokenCfg:   inf.Mode,
		Pairing:    inf.OTP,
		Radius:     inf.Pool,
		Risk:       opts.Risk,
	})

	// Login node.
	inf.SSHD = &sshd.Server{
		IDM: inf.IDM, AuthLog: inf.AuthLog, Stack: inf.Stack,
		Risk:  opts.Risk,
		Clock: clk, Banner: opts.Banner,
		Obs: opts.Obs, Logger: opts.Logger,
		Spans: opts.Spans, Events: opts.Events,
		AuthTimeout: opts.SSHAuthTimeout,
	}
	if opts.FaultNet != nil {
		inf.SSHD.Listen = opts.FaultNet.Listen
	}
	if err := inf.SSHD.ListenAndServe("127.0.0.1:0"); err != nil {
		return fail(err)
	}
	inf.sshAddr = inf.SSHD.Addr().String()

	// otpd admin REST API with digest credentials for the portal.
	adminPass := cryptoutil.RandomHex(16)
	api := &otpd.AdminAPI{
		OTP:   inf.OTP,
		Realm: "otpd-admin",
		Creds: httpdigest.StaticCredentials{
			"portal": httpdigest.HA1("portal", "otpd-admin", adminPass),
		},
	}
	adminLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	inf.adminAddr = adminLn.Addr().String()
	inf.adminHTTP = &http.Server{Handler: api.Handler()}
	go inf.adminHTTP.Serve(adminLn)

	inf.Admin = &otpd.AdminClient{
		BaseURL:  "http://" + inf.adminAddr,
		Username: "portal",
		Password: adminPass,
	}

	// Portal.
	email := opts.Email
	if email == nil {
		email = portal.EmailFunc(func(string, string, string) error { return nil })
	}
	pcfg := portal.Config{
		IDM:        inf.IDM,
		Admin:      inf.Admin,
		Email:      email,
		Clock:      clk,
		SessionKey: cryptoutil.RandomBytes(32),
		BaseURL:    "", // filled after listen
		Obs:        opts.Obs,
		Events:     opts.Events,
	}
	if opts.Watch != nil {
		pcfg.HealthChecks = append(pcfg.HealthChecks, opts.Watch.Health)
		pcfg.ExtraMounts = append(pcfg.ExtraMounts, opts.Watch.Mount)
	}
	if opts.FlightRec != nil {
		pcfg.ExtraMounts = append(pcfg.ExtraMounts, opts.FlightRec.Mount)
	}
	if opts.SLO != nil {
		pcfg.HealthChecks = append(pcfg.HealthChecks, opts.SLO.Health)
		pcfg.ExtraMounts = append(pcfg.ExtraMounts, opts.SLO.Mount)
	}
	if opts.Prof != nil {
		pcfg.ExtraMounts = append(pcfg.ExtraMounts, opts.Prof.Mount)
	}
	if inf.ReplLeader != nil {
		pcfg.ExtraMounts = append(pcfg.ExtraMounts, inf.ReplLeader.Mount)
	}
	p, err := portal.New(pcfg)
	if err != nil {
		return fail(err)
	}
	inf.Portal = p
	portalLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	inf.portalAddr = portalLn.Addr().String()
	inf.portalHTTP = &http.Server{Handler: p.Handler()}
	go inf.portalHTTP.Serve(portalLn)

	return inf, nil
}

// SSHAddr is the login node's address.
func (inf *Infrastructure) SSHAddr() string { return inf.sshAddr }

// PortalURL is the portal's base URL.
func (inf *Infrastructure) PortalURL() string { return "http://" + inf.portalAddr }

// AdminURL is the otpd admin API base URL.
func (inf *Infrastructure) AdminURL() string { return "http://" + inf.adminAddr }

// RadiusAddrs lists the RADIUS farm addresses.
func (inf *Infrastructure) RadiusAddrs() []string { return inf.Pool.Servers() }

// RadiusFarm exposes the individual RADIUS servers, e.g. for failure
// injection in examples and chaos tests.
func (inf *Infrastructure) RadiusFarm() []*radius.Server { return inf.radiusServers }

// CreateUser registers an account.
func (inf *Infrastructure) CreateUser(username, email, password string, class idm.AccountClass) (*idm.Account, error) {
	return inf.IDM.Create(username, email, password, class)
}

// PairSoft provisions a soft token for user, the non-HTTP equivalent of
// the portal flow (used by simulations and CLIs). Each Pair* call and
// Unpair is one otpd write: the token record is the pairing.
func (inf *Infrastructure) PairSoft(user string) (*otpd.Enrollment, error) {
	return inf.OTP.InitSoftToken(user)
}

// PairSMS provisions an SMS token, registering the phone on the virtual
// network.
func (inf *Infrastructure) PairSMS(user, phone string) (*otpd.Enrollment, *sms.Phone, error) {
	ph, err := inf.SMS.Register(phone)
	if err != nil {
		return nil, nil, err
	}
	enr, err := inf.OTP.InitSMSToken(user, phone)
	return enr, ph, err
}

// PairHard assigns an imported fob by serial.
func (inf *Infrastructure) PairHard(user, serial string) (*otpd.Enrollment, error) {
	return inf.OTP.AssignHardToken(user, serial)
}

// PairTraining provisions a static training token.
func (inf *Infrastructure) PairTraining(user, code string) error {
	return inf.OTP.SetStaticToken(user, code)
}

// Unpair removes a pairing (admin-side; the portal's flows add possession
// proof on top of this).
func (inf *Infrastructure) Unpair(user string) error {
	return inf.OTP.RemoveToken(user)
}

// Close shuts everything down.
func (inf *Infrastructure) Close() error {
	if inf.SSHD != nil {
		inf.SSHD.Close()
	}
	for _, rs := range inf.radiusServers {
		rs.Close()
	}
	if inf.Pool != nil {
		inf.Pool.Close()
	}
	if inf.adminHTTP != nil {
		inf.adminHTTP.Close()
	}
	if inf.portalHTTP != nil {
		inf.portalHTTP.Close()
	}
	// Replication detaches before the stores close: a leader must stop
	// streaming (and fail any MinSync waiters) and a follower must stop
	// applying before Close fsyncs and releases the segments.
	if inf.ReplLeader != nil {
		inf.ReplLeader.Close()
	}
	if inf.ReplFollower != nil {
		inf.ReplFollower.Stop()
	}
	var firstErr error
	for _, s := range inf.stores {
		if err := s.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// String summarises the deployment.
func (inf *Infrastructure) String() string {
	return fmt.Sprintf("openmfa infrastructure: sshd=%s portal=%s otpd-admin=%s radius=%v",
		inf.SSHAddr(), inf.PortalURL(), inf.AdminURL(), inf.RadiusAddrs())
}

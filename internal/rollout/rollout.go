package rollout

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"time"

	"openmfa/internal/authlog"
	"openmfa/internal/cryptoutil"
	"openmfa/internal/eventstream"
	"openmfa/internal/idm"
	"openmfa/internal/loganalysis"
	"openmfa/internal/metrics"
	"openmfa/internal/obs"
	"openmfa/internal/otp"
	"openmfa/internal/otpd"
	"openmfa/internal/pam"
)

// Result carries everything the experiment emitters need.
type Result struct {
	Config  Config
	Metrics *metrics.Daily
	// Table1 is the final pairing-type breakdown (paper Table 1).
	Table1 metrics.Breakdown
	// SMSMessages is the number of token texts sent (cost model input).
	SMSMessages int
	// Analysis is the §4.1 report over the simulated auth log.
	Analysis *loganalysis.Report
	// MFALogins / TotalLogins summarise the run ("over half a million
	// successful log ins" in the paper's production year).
	MFALogins   int
	TotalLogins int
	// Obs is the run's metrics registry: every simulated login records
	// per-stage counters plus an end-to-end wall-clock auth latency
	// histogram (rollout_auth_duration_seconds).
	Obs *obs.Registry
}

// ObservabilityReport summarises the run's end-to-end authentication
// latency percentiles and RADIUS outcome counts for the experiment logs.
func (r *Result) ObservabilityReport() string {
	if r.Obs == nil {
		return ""
	}
	h := r.Obs.Histogram("rollout_auth_duration_seconds", nil)
	if h.Count() == 0 {
		return "observability: no authentications recorded"
	}
	dur := func(q float64) time.Duration {
		return time.Duration(h.Quantile(q) * float64(time.Second)).Round(time.Microsecond)
	}
	return fmt.Sprintf(
		"observability: auth latency n=%d p50=%s p90=%s p99=%s; radius accept=%d reject=%d challenge=%d",
		h.Count(), dur(0.5), dur(0.9), dur(0.99),
		int(r.Obs.Counter("radius_requests_total", "result", "accept").Value()),
		int(r.Obs.Counter("radius_requests_total", "result", "reject").Value()),
		int(r.Obs.Counter("radius_requests_total", "result", "challenge").Value()))
}

// sim is the running simulation.
type sim struct {
	cfg     Config
	rng     *rand.Rand
	metrics *metrics.Daily
	people  []*person
	*deployment

	mfaLogins   int
	totalLogins int
	lastLogin   map[string]time.Time // per-user spacing for replay safety
}

// Run executes the simulation and returns the collected evaluation data.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	s := &sim{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		metrics:   metrics.NewDaily(cfg.Start, cfg.End),
		lastLogin: make(map[string]time.Time),
	}
	s.buildPopulation()

	// Gateways and community automation keep a standing whitelist entry.
	var gateways []string
	for _, p := range s.people {
		if p.class == idm.ClassGateway {
			gateways = append(gateways, p.name)
		}
	}
	var err error
	s.deployment, err = deploy(cfg.Start, cfg.Events, pam.ModePaired, gateways, false)
	if err != nil {
		return nil, err
	}
	defer s.inf.Close()

	for d := 0; d < s.metrics.Days; d++ {
		s.runDay(d)
		if d%30 == 29 && cfg.Logf != nil {
			cfg.Logf("rollout: %s done (%d/%d days, %d logins so far)",
				s.metrics.Date(d).Format("2006-01-02"), d+1, s.metrics.Days, s.totalLogins)
		}
	}

	return s.assemble(), nil
}

func (s *sim) createAccount(p *person) {
	if _, err := s.inf.CreateUser(p.name, p.name+"@hpc.example", p.password, p.class); err != nil {
		panic("rollout: create account: " + err.Error())
	}
}

// runDay simulates one calendar day.
func (s *sim) runDay(d int) {
	date := s.metrics.Date(d)
	s.clk.Set(date.Add(5 * time.Hour))
	s.inf.Mode.Set(pam.TokenConfig{
		Mode:     s.cfg.modeFor(date),
		Deadline: s.cfg.Phase3.AddDate(0, 0, -1),
		InfoURL:  "https://portal.hpc.example/mfa",
	})

	// Accounts appear on their creation day (most on day 0).
	for _, p := range s.people {
		if p.createdDay == d {
			s.createAccount(p)
		}
	}

	// Pairings scheduled for today happen in the morning.
	newPairings := 0
	for _, p := range s.people {
		if p.pairDay == d {
			if s.pair(p) {
				newPairings++
			}
		}
	}
	s.metrics.Set(date, SeriesPairingsNew, float64(newPairings))

	// Generate the day's login schedule.
	type login struct {
		p        *person
		offset   time.Duration
		internal bool
	}
	var plan []login
	factor := s.dayFactor(date)
	for _, p := range s.people {
		if p.createdDay > d {
			continue
		}
		ext, intl := p.extRate, p.intRate
		// §5 adaptation: once the countdown's mandatory acknowledgement
		// broke scripted workflows, heavily automated accounts moved to
		// multiplexing, login-node cron jobs, and internal transfers —
		// the Figure 4 cliff in external non-MFA traffic.
		if p.class == idm.ClassCommunity && !date.Before(s.cfg.Phase2) {
			ext *= 0.15
			intl *= 3.0
		}
		if p.class == idm.ClassTraining {
			if p.pairDay == d { // workshop day
				ext = 2.5
			} else {
				continue
			}
		}
		// Never-pairing users stop attempting once MFA is mandatory.
		if !p.paired && p.pairDay == -1 && p.class != idm.ClassGateway &&
			!date.Before(s.cfg.Phase3) {
			ext *= 0.05
		}
		for i, n := 0, poisson(s.rng, ext*factor); i < n; i++ {
			plan = append(plan, login{p: p, offset: s.loginOffset()})
		}
		for i, n := 0, poisson(s.rng, intl*factor); i < n; i++ {
			plan = append(plan, login{p: p, offset: s.loginOffset(), internal: true})
		}
	}
	sort.Slice(plan, func(i, j int) bool { return plan[i].offset < plan[j].offset })

	mfaUsers := make(map[string]bool)
	failures := 0
	for _, l := range plan {
		ok, usedMFA := s.doLogin(l.p, date, l.offset, l.internal)
		if !ok {
			failures++
			if !l.p.paired && !l.internal {
				s.metrics.Add(date, SeriesDeniedUnpaired, 1)
			}
			continue
		}
		s.totalLogins++
		s.metrics.Add(date, SeriesTrafficAll, 1)
		if !l.internal {
			s.metrics.Add(date, SeriesTrafficExternal, 1)
			if usedMFA {
				s.metrics.Add(date, SeriesTrafficExtMFA, 1)
				mfaUsers[l.p.name] = true
				s.mfaLogins++
			}
		}
	}
	s.metrics.Set(date, SeriesUniqueMFAUsers, float64(len(mfaUsers)))
	s.metrics.Set(date, SeriesLoginFailures, float64(failures))

	s.tickets(date, newPairings, failures)
}

// loginOffset spreads logins over the working day.
func (s *sim) loginOffset() time.Duration {
	return 6*time.Hour + time.Duration(s.rng.Int63n(int64(16*time.Hour)))
}

// pair provisions the person's device through the deployment's enrolment
// entry points.
func (s *sim) pair(p *person) bool {
	var err error
	switch p.device {
	case otpd.TokenTraining:
		err = s.inf.PairTraining(p.name, p.staticCode)
	case otpd.TokenSMS:
		_, p.handset, err = s.inf.PairSMS(p.name, p.phone)
	case otpd.TokenHard:
		// The fob holds the same pre-programmed seed as the back end; the
		// simulated device reads codes via CurrentCode at login.
		serial := "C200-" + p.name
		if err = s.inf.OTP.ImportHardToken(serial, cryptoutil.RandomBytes(20)); err == nil {
			_, err = s.inf.PairHard(p.name, serial)
		}
	default: // soft
		var enr *otpd.Enrollment
		if enr, err = s.inf.PairSoft(p.name); err == nil {
			p.secret = enr.Secret
		}
	}
	p.paired = err == nil
	return p.paired
}

// doLogin pushes one login through the PAM stack. Returns (granted,
// usedMFA).
func (s *sim) doLogin(p *person, date time.Time, offset time.Duration, internal bool) (bool, bool) {
	at := date.Add(offset)
	// Per-user spacing: a TOTP code is consumed on success, so devices
	// are never asked for two logins inside one 30 s step.
	if last, ok := s.lastLogin[p.name]; ok {
		if gap := at.Sub(last); gap < 31*time.Second {
			at = last.Add(31 * time.Second)
		}
	}
	s.lastLogin[p.name] = at

	var ip net.IP
	if internal {
		ip = net.IPv4(10, 128, byte(s.rng.Intn(256)), byte(1+s.rng.Intn(250)))
	} else {
		ip = net.IPv4(73, byte(s.rng.Intn(200)), byte(s.rng.Intn(256)), byte(1+s.rng.Intn(250)))
	}

	// Public-key first factor: sshd would have verified the signature
	// and written the log record the PAM module greps.
	if p.pubkey {
		s.inf.AuthLog.Append(authlog.Event{
			Time: at, Type: authlog.AcceptedPublickey,
			User: p.name, Addr: ip.String(), Port: 50000 + s.rng.Intn(9999),
			TTY: s.rng.Float64() < p.tty, Shell: p.shell,
		})
	}

	conv := &deviceConv{
		password: p.password, guess: "000000", handset: p.handset,
		code: func(c *deviceConv) (string, error) { return s.deviceCode(p, c) },
	}
	granted := s.login(date, at, p.name, ip, conv, func(ev *eventstream.Event) {
		ev.TTY, ev.Shell = s.rng.Float64() < p.tty, p.shell
		s.inf.AuthLog.Append(authlog.Event{
			Time: at, Type: authlog.SessionOpen,
			User: p.name, Addr: ip.String(), Port: 50000 + s.rng.Intn(9999),
			TTY: ev.TTY, Shell: p.shell,
		})
	})
	return granted, granted && conv.tokenOK
}

// deviceCode is what the person's device shows right now.
func (s *sim) deviceCode(p *person, conv *deviceConv) (string, error) {
	switch p.device {
	case otpd.TokenTraining:
		return p.staticCode, nil
	case otpd.TokenSMS:
		return conv.smsCode()
	case otpd.TokenHard:
		return s.inf.OTP.CurrentCode(p.name, 0)
	default:
		if p.secret == nil {
			return "", errors.New("unpaired")
		}
		return otp.TOTP(p.secret, s.clk.Now(), s.inf.OTP.OTPOptions())
	}
}

// tickets models the Figure 5 support load: a weekday-shaped baseline of
// non-MFA tickets plus an MFA component tied to pairing activity and
// login failures, calibrated to the paper's shares (6.7 % Aug–Dec, 2.7 %
// Jan–Mar).
func (s *sim) tickets(date time.Time, newPairings, failures int) {
	base := 28.0
	if date.Weekday() == time.Saturday || date.Weekday() == time.Sunday {
		base = 8
	}
	total := float64(poisson(s.rng, base))

	// MFA inquiry rates are calibrated against the paper's observed
	// shares: "MFA-related user support tickets comprised an average of
	// 6.7% of all inquiries [Aug–Dec]. During January to March of 2017,
	// MFA inquiries averaged only 2.7%." A small coupling to the day's
	// pairing volume and login failures preserves the correlation with
	// transition events visible in Figure 5.
	var mfaRate float64
	switch {
	case date.Before(s.cfg.Announce):
		mfaRate = 0
	case date.Year() == 2016:
		mfaRate = 1.58 + 0.02*float64(newPairings) + 0.01*float64(failures)
	default:
		mfaRate = 0.62 + 0.02*float64(newPairings) + 0.01*float64(failures)
	}
	mfa := float64(poisson(s.rng, mfaRate))
	s.metrics.Set(date, SeriesTicketsMFA, mfa)
	s.metrics.Set(date, SeriesTicketsTotal, total+mfa)
}

// assemble builds the Result.
func (s *sim) assemble() *Result {
	counts := map[string]int{}
	for _, ti := range s.inf.OTP.Tokens() {
		counts[string(ti.Type)]++
	}
	table1 := metrics.NewBreakdown("Token Device Pairing Type", counts)

	var events []authlog.Event
	s.inf.AuthLog.ScanRecent(func(e authlog.Event) bool {
		events = append(events, e)
		return true
	})
	analysis := loganalysis.Analyze(events, s.cfg.Start, s.cfg.End.AddDate(0, 0, 1))

	return &Result{
		Config:      s.cfg,
		Metrics:     s.metrics,
		Table1:      table1,
		SMSMessages: s.inf.SMS.Cost().Messages,
		Analysis:    analysis,
		MFALogins:   s.mfaLogins,
		TotalLogins: s.totalLogins,
		Obs:         s.inf.Obs,
	}
}

package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"time"

	"openmfa/internal/clock"
	"openmfa/internal/core"
	"openmfa/internal/idm"
	"openmfa/internal/sms"
)

// kind is what a scripted login presents as its second factor.
type kind uint8

const (
	kindExempt   kind = iota // gateway account: stack ends at pam_mfa_exempt
	kindSoft                 // soft TOTP token
	kindSMS                  // SMS token: null request, then the texted code
	kindTraining             // static six-digit code
	kindHard                 // imported fob, TOTP like a soft token
)

func (k kind) String() string {
	return [...]string{"exempt", "soft", "sms", "training", "hard"}[k]
}

// member is one enrolled account and what the generator needs to log in as
// it.
type member struct {
	name   string
	kind   kind
	secret []byte     // soft, sms, hard
	static string     // training
	phone  *sms.Phone // sms

	// lastCode is the last time-based code the stack accepted for this
	// member; the post-run check replays it and expects a rejection.
	lastCode string
}

// password is every account's first factor. Accounts still get their own
// PBKDF2 salt, so enrolment and the first login cost what they would with
// distinct passwords.
const password = "pw"

// population is the fixed set of accounts a workload logs in as.
type population struct {
	users    []member // MFA users, taken round-robin
	gateways []member // exempt accounts (mix_paper only)
}

// mix is a workload's traffic shape.
type mix struct {
	// table1 pairs users by the paper's Table 1 device split instead of
	// all-soft.
	table1 bool
	// exempt is the share of logins made by gateway accounts.
	exempt float64
	// wrongFirst is the share of MFA logins that present one wrong code
	// before the right one.
	wrongFirst float64
}

// newPopulation lays out n MFA users and, when the mix has exempt traffic,
// a handful of gateway accounts. Nothing is enrolled yet.
func newPopulation(n int, m mix) *population {
	p := &population{users: make([]member, n)}
	for i := range p.users {
		u := &p.users[i]
		u.name = fmt.Sprintf("u%05d", i)
		u.kind = kindSoft
		if m.table1 {
			// Table 1: soft 55 / SMS 40 / training 3 / hard 2 %.
			switch pct := i * 100 / n; {
			case pct < 55:
				u.kind = kindSoft
			case pct < 95:
				u.kind = kindSMS
			case pct < 98:
				u.kind = kindTraining
			default:
				u.kind = kindHard
			}
		}
	}
	if m.exempt > 0 {
		// Figure 4's exempt traffic comes from a few science-gateway
		// accounts that log in far more often than any person.
		p.gateways = make([]member, 8)
		for i := range p.gateways {
			p.gateways[i] = member{name: fmt.Sprintf("gw%02d", i), kind: kindExempt}
		}
	}
	return p
}

// exemptionRules is the accessctl configuration that exempts the gateways.
func (p *population) exemptionRules() string {
	if len(p.gateways) == 0 {
		return ""
	}
	names := make([]string, len(p.gateways))
	for i := range p.gateways {
		names[i] = p.gateways[i].name
	}
	return "permit : " + strings.Join(names, " ") + " : ALL : ALL"
}

// zeroDelayCarrier delivers every text at once and never loses one, so an
// SMS login waits on the stack and not on a modelled handset.
func zeroDelayCarrier() *sms.CarrierModel {
	return &sms.CarrierModel{MaxAttempts: 1}
}

// enrol creates and pairs every account through the public enrolment entry
// points, split over workers goroutines.
func (p *population) enrol(inf *core.Infrastructure, workers int) error {
	err := parallel(workers, func(w int) error {
		for i := w; i < len(p.users); i += workers {
			if err := enrolUser(inf, &p.users[i], i); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i := range p.gateways {
		g := &p.gateways[i]
		if _, err := inf.CreateUser(g.name, g.name+"@hpc.example", password, idm.ClassGateway); err != nil {
			return fmt.Errorf("enrol %s: %w", g.name, err)
		}
	}
	return nil
}

// parallel runs fn(0..n-1) on n goroutines, waits for all of them and
// returns the first error.
func parallel(n int, fn func(worker int) error) error {
	errs := make(chan error, n)
	for w := 0; w < n; w++ {
		go func(w int) { errs <- fn(w) }(w)
	}
	var first error
	for w := 0; w < n; w++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func enrolUser(inf *core.Infrastructure, u *member, i int) error {
	if _, err := inf.CreateUser(u.name, u.name+"@hpc.example", password, idm.ClassUser); err != nil {
		return fmt.Errorf("enrol %s: %w", u.name, err)
	}
	var err error
	switch u.kind {
	case kindSoft:
		enr, e := inf.PairSoft(u.name)
		if err = e; e == nil {
			u.secret = enr.Secret
		}
	case kindSMS:
		enr, ph, e := inf.PairSMS(u.name, fmt.Sprintf("512%07d", i))
		if err = e; e == nil {
			u.secret, u.phone = enr.Secret, ph
		}
	case kindTraining:
		u.static = fmt.Sprintf("%06d", 100000+i)
		err = inf.PairTraining(u.name, u.static)
	case kindHard:
		// A fob's secret is fixed at manufacture; any 20 bytes do.
		u.secret = []byte(fmt.Sprintf("fob-secret-%09d", i))
		serial := fmt.Sprintf("FOB%07d", i)
		if err = inf.OTP.ImportHardToken(serial, u.secret); err == nil {
			_, err = inf.PairHard(u.name, serial)
		}
	}
	if err != nil {
		return fmt.Errorf("pair %s (%s): %w", u.name, u.kind, err)
	}
	return nil
}

// op is one scripted login: who, with what, and whether a wrong code comes
// first. For kindExempt, user indexes population.gateways.
type op struct {
	user       int32
	kind       kind
	wrongFirst bool
}

// traffic is the seeded login sequence. The same (seed, population size,
// mix) always yields the same sequence of ops.
type traffic struct {
	rng   *rand.Rand
	pop   *population
	mix   mix
	order []int32 // seeded visiting order of the MFA users
	next  int     // MFA logins handed out so far
	gw    int     // gateway logins handed out so far
}

func newTraffic(seed int64, pop *population, m mix) *traffic {
	t := &traffic{rng: rand.New(rand.NewSource(seed)), pop: pop, mix: m}
	t.order = make([]int32, len(pop.users))
	for i, j := range t.rng.Perm(len(pop.users)) {
		t.order[i] = int32(j)
	}
	return t
}

// nextOp returns the next login and whether it is the first of a new pass
// over the MFA users (the moment the epoch clock has to step).
func (t *traffic) nextOp() (o op, wrap bool) {
	// Both draws happen on every op so the sequence depends only on the
	// seed and the mix, not on which branch earlier ops took.
	exempt := t.rng.Float64() < t.mix.exempt
	wrong := t.rng.Float64() < t.mix.wrongFirst
	if exempt && len(t.pop.gateways) > 0 {
		o = op{user: int32(t.gw % len(t.pop.gateways)), kind: kindExempt}
		t.gw++
		return o, false
	}
	n := len(t.order)
	wrap = t.next > 0 && t.next%n == 0
	u := t.order[t.next%n]
	t.next++
	return op{user: u, kind: t.pop.users[u].kind, wrongFirst: wrong}, wrap
}

// epochStart is where every run's simulated clock begins; it is aligned to
// a TOTP step.
var epochStart = time.Date(2016, 10, 10, 8, 0, 0, 0, time.UTC)

// source hands ops to the client goroutines and owns the epoch clock. MFA
// users are taken round-robin and the simulated clock advances one TOTP
// period each time the pool wraps, so no user presents two codes in one
// step and the authlog's 30 s window holds a constant number of events
// however fast the machine is. A wrap first waits for the logins still in
// flight: an SMS code is minted by the server at its own "now", and a
// straggler minting it after the step would burn the code that user needs
// on their next turn.
type source struct {
	mu       sync.Mutex
	idle     *sync.Cond
	tr       *traffic
	sim      *clock.Sim
	period   time.Duration
	inflight int
	stepping bool // a taker is waiting to advance the clock
	// limit stops take once this many MFA logins have been handed out;
	// the warm-up sets it to one pass over the pool.
	limit int
	// onWrap, when set, runs at each wrap after the last login in flight
	// has finished and before the clock steps: the one moment nothing is
	// running, which is where a measured phase is cut into passes.
	onWrap func()
}

func newSource(tr *traffic, sim *clock.Sim, period time.Duration) *source {
	s := &source{tr: tr, sim: sim, period: period, limit: math.MaxInt}
	s.idle = sync.NewCond(&s.mu)
	return s
}

// take returns the next login to perform, or false once the limit is
// reached; after a true return the caller must call done when the login
// has finished.
func (s *source) take() (op, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// A taker that arrives while another is waiting to step the clock
	// must not slip through with the old time.
	for s.stepping {
		s.idle.Wait()
	}
	if s.tr.next >= s.limit {
		return op{}, false
	}
	o, wrap := s.tr.nextOp()
	if wrap {
		s.stepping = true
		for s.inflight > 0 {
			s.idle.Wait()
		}
		if s.onWrap != nil {
			s.onWrap()
		}
		s.sim.Advance(s.period)
		s.stepping = false
		s.idle.Broadcast()
	}
	s.inflight++
	return o, true
}

// setLimit changes how many MFA logins take hands out in total.
func (s *source) setLimit(n int) {
	s.mu.Lock()
	s.limit = n
	s.mu.Unlock()
}

// setOnWrap installs (or with nil removes) the wrap hook.
func (s *source) setOnWrap(f func()) {
	s.mu.Lock()
	s.onWrap = f
	s.mu.Unlock()
}

func (s *source) done() {
	s.mu.Lock()
	s.inflight--
	if s.inflight == 0 {
		s.idle.Broadcast()
	}
	s.mu.Unlock()
}

// Risk-based adaptive-MFA attack-mix evaluation (DESIGN.md §14): the same
// deterministic attempt schedule is replayed twice over fresh core.New
// deployments — once through the plain Figure 1 stack ("off" arm), once
// with Options.Risk set ("on" arm) — and the two arms are compared
// on usability (MFA prompts shown to legitimate users, SMS volume) and
// security (attacker success per scenario).
//
// Scenarios:
//
//   - credential_stuffing: an attacker replays leaked passwords from a
//     botnet. Exempt (gateway) accounts are the engine-off exposure: the
//     whitelist skips MFA for them from any source, so a leaked password
//     is full compromise. The gate's step-up cancels the exemption.
//   - sim_swap_sms: the attacker ports the victim's phone number and
//     receives the token texts, so the second factor alone no longer
//     helps. The gate denies on impossible travel from the victim's
//     login 90 minutes earlier.
//   - otp_replay: a real-time phish relays the victim's current TOTP
//     code (engine-off compromise); a stale replay of an already-used
//     code is stopped in both arms by otpd's consume-once rule.
//   - benign_travel: no attacker. Established users travel abroad;
//     the gate must step them up, not lock them out, and home-network
//     logins earn the adaptive skip.
//
// Every attempt drives the real PAM → RADIUS → otpd path, exactly like
// the phased-rollout simulation. The schedule (users, sources, timing,
// attacker actions) is pre-generated from the seed alone, so two runs —
// and both arms within a run — see byte-identical timelines; reports are
// byte-stable per seed.
package rollout

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strings"
	"time"

	"openmfa/internal/eventstream"
	"openmfa/internal/idm"
	"openmfa/internal/otp"
	"openmfa/internal/otpd"
	"openmfa/internal/pam"
	"openmfa/internal/sms"
)

// RiskEvalConfig parameterises RunRiskEval. Zero values take defaults.
type RiskEvalConfig struct {
	// Users is the legitimate population per scenario (default 24, min 8).
	Users int
	// Days is the evaluated calendar length per scenario (default 8, min 5).
	Days int
	// Seed drives all randomness; runs are deterministic per seed.
	Seed int64
	// Start is the first evaluated day (default 2017-04-03, after the
	// paper's rollout completed — every account is in "full" mode).
	Start time.Time
	// Events, when set, receives the on-arm event stream live (login
	// results, otpd SMS/enrol events, and the engine's TypeRisk
	// decisions), for JSONL dumps and offline replay. The bus consumes no
	// randomness: results are identical with or without it.
	Events *eventstream.Bus
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

func (c RiskEvalConfig) withDefaults() RiskEvalConfig {
	if c.Users == 0 {
		c.Users = 24
	}
	if c.Users < 8 {
		c.Users = 8
	}
	if c.Days == 0 {
		c.Days = 8
	}
	if c.Days < 5 {
		c.Days = 5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Start.IsZero() {
		c.Start = time.Date(2017, 4, 3, 0, 0, 0, 0, time.UTC)
	}
	return c
}

// RiskArmStats aggregates one scenario arm.
type RiskArmStats struct {
	LegitAttempts int // legitimate login attempts
	LegitGranted  int // ...that succeeded
	LegitPrompts  int // ...that saw a token prompt
	AttackerTries int // attacker attempts
	Breaches      int // ...that succeeded
	SMS           int // token texts sent
	// Gate decision mix (zero on the off arm).
	Skips, Allows, StepUps, Denies int
}

// RiskScenarioResult is one attack mix, engine off vs on.
type RiskScenarioResult struct {
	Name        string
	Description string
	Off, On     RiskArmStats
}

// RiskEvalResult carries everything the report needs.
type RiskEvalResult struct {
	Config    RiskEvalConfig
	Scenarios []RiskScenarioResult
}

// warmupDays is the per-account history imported before day 0 (production
// history predating the evaluation window; MinHistory is 20).
const warmupDays = 25

// Attack timing relative to the victim's own login.
const (
	attackLag = 90 * time.Minute // sim-swap / phish: after the victim's morning login
	replayLag = 10 * time.Second // stale-code replay: inside the same TOTP step
)

// Attempt kinds.
const (
	kindLegit   = "legit"
	kindStuff   = "stuff"   // leaked password, no second factor
	kindSimSwap = "simswap" // leaked password + ported phone number
	kindPhish   = "phish"   // leaked password + live-relayed TOTP code
	kindReplay  = "replay"  // leaked password + already-consumed TOTP code
)

// rperson is one evaluation account.
type rperson struct {
	name     string
	password string
	phone    string
	device   otpd.TokenType // empty = no token (gateway)
	exempt   bool           // standing whitelist entry (gateway)
	home     net.IP         // habitual source address
	travelIP net.IP         // trip source (benign_travel)
}

// rattempt is one scheduled authentication attempt. Offsets are minute-
// spaced per user (well past one TOTP step), except the deliberate
// replayLag pair.
type rattempt struct {
	day  int
	off  time.Duration
	p    *rperson
	ip   net.IP
	kind string
}

func (a *rattempt) attacker() bool { return a.kind != kindLegit }

// dayOffsets draws n distinct minute offsets in [loMin, hiMin).
func dayOffsets(rng *rand.Rand, n, loMin, hiMin int) []time.Duration {
	used := make(map[int]bool, n)
	out := make([]time.Duration, 0, n)
	for len(out) < n {
		m := loMin + rng.Intn(hiMin-loMin)
		if used[m] {
			continue
		}
		used[m] = true
		out = append(out, time.Duration(m)*time.Minute)
	}
	return out
}

func cnIP(rng *rand.Rand) net.IP {
	return net.IPv4(159, 226, byte(1+rng.Intn(250)), byte(1+rng.Intn(250)))
}

func homeIP(rng *rand.Rand) net.IP {
	return net.IPv4(73, byte(10+rng.Intn(150)), byte(rng.Intn(256)), byte(1+rng.Intn(250)))
}

func mkPeople(rng *rand.Rand, prefix string, n int, device func(i int) otpd.TokenType) []*rperson {
	people := make([]*rperson, 0, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("%s-u%03d", prefix, i)
		people = append(people, &rperson{
			name:     name,
			password: "pw-" + name,
			phone:    fmt.Sprintf("+1512%07d", i),
			device:   device(i),
			home:     homeIP(rng),
		})
	}
	return people
}

// victims deterministically selects ~30% of the population (at least 2).
func victims(rng *rand.Rand, people []*rperson) []*rperson {
	v := len(people) * 3 / 10
	if v < 2 {
		v = 2
	}
	perm := rng.Perm(len(people))
	out := make([]*rperson, v)
	for i := 0; i < v; i++ {
		out[i] = people[perm[i]]
	}
	return out
}

func sortSchedule(sched []rattempt) {
	sort.SliceStable(sched, func(i, j int) bool {
		if sched[i].day != sched[j].day {
			return sched[i].day < sched[j].day
		}
		return sched[i].off < sched[j].off
	})
}

// genStuffing: every account logs in daily; the attacker holds leaked
// passwords for both gateways and ~25% of users and sprays from a botnet.
func genStuffing(rng *rand.Rand, cfg RiskEvalConfig) ([]*rperson, []rattempt) {
	people := mkPeople(rng, "cs", cfg.Users, func(i int) otpd.TokenType {
		if rng.Float64() < 0.7 {
			return otpd.TokenSoft
		}
		return otpd.TokenSMS
	})
	for g := 0; g < 2; g++ {
		name := fmt.Sprintf("cs-gw%d", g+1)
		people = append(people, &rperson{
			name: name, password: "pw-" + name, exempt: true, home: homeIP(rng),
		})
	}

	var sched []rattempt
	for day := 0; day < cfg.Days; day++ {
		for _, p := range people {
			for _, off := range dayOffsets(rng, 1+rng.Intn(2), 360, 1320) {
				sched = append(sched, rattempt{day: day, off: off, p: p, ip: p.home, kind: kindLegit})
			}
		}
	}

	var targets []*rperson
	for _, p := range people {
		if p.exempt || rng.Float64() < 0.25 {
			targets = append(targets, p)
		}
	}
	// Four attempts per breached account, on distinct days, well under
	// otpd's 20-failure lockout.
	for _, p := range targets {
		perm := rng.Perm(cfg.Days - 1)
		n := 4
		if n > len(perm) {
			n = len(perm)
		}
		for j := 0; j < n; j++ {
			sched = append(sched, rattempt{
				day: 1 + perm[j], off: dayOffsets(rng, 1, 360, 1320)[0],
				p: p, ip: cnIP(rng), kind: kindStuff,
			})
		}
	}
	return people, sched
}

// genSimSwap: an all-SMS population; each victim's number is ported and
// the attacker logs in 90 minutes after the victim's own morning login.
func genSimSwap(rng *rand.Rand, cfg RiskEvalConfig) ([]*rperson, []rattempt) {
	people := mkPeople(rng, "ss", cfg.Users, func(int) otpd.TokenType { return otpd.TokenSMS })
	vs := victims(rng, people)
	attackDay := make(map[*rperson]int, len(vs))
	for _, v := range vs {
		attackDay[v] = 1 + rng.Intn(cfg.Days-1)
	}

	var sched []rattempt
	for day := 0; day < cfg.Days; day++ {
		for _, p := range people {
			if ad, ok := attackDay[p]; ok && ad == day {
				// One morning login, then the account stays quiet; the
				// attack follows 90 minutes later.
				off := dayOffsets(rng, 1, 360, 660)[0]
				sched = append(sched,
					rattempt{day: day, off: off, p: p, ip: p.home, kind: kindLegit},
					rattempt{day: day, off: off + attackLag, p: p, ip: cnIP(rng), kind: kindSimSwap})
				continue
			}
			for _, off := range dayOffsets(rng, 1+rng.Intn(2), 360, 1320) {
				sched = append(sched, rattempt{day: day, off: off, p: p, ip: p.home, kind: kindLegit})
			}
		}
	}
	return people, sched
}

// genReplay: an all-soft-token population; half the victims are phished
// in real time (the relayed code is still fresh), half have a stale code
// replayed inside the TOTP step the victim already consumed.
func genReplay(rng *rand.Rand, cfg RiskEvalConfig) ([]*rperson, []rattempt) {
	people := mkPeople(rng, "or", cfg.Users, func(int) otpd.TokenType { return otpd.TokenSoft })
	vs := victims(rng, people)

	var sched []rattempt
	attackDay := make(map[*rperson]int, len(vs))
	kinds := make(map[*rperson]string, len(vs))
	for i, v := range vs {
		attackDay[v] = 1 + rng.Intn(cfg.Days-1)
		if i%2 == 0 {
			kinds[v] = kindPhish
		} else {
			kinds[v] = kindReplay
		}
	}
	for day := 0; day < cfg.Days; day++ {
		for _, p := range people {
			if ad, ok := attackDay[p]; ok && ad == day {
				off := dayOffsets(rng, 1, 360, 660)[0]
				lag := attackLag
				if kinds[p] == kindReplay {
					lag = replayLag
				}
				sched = append(sched,
					rattempt{day: day, off: off, p: p, ip: p.home, kind: kindLegit},
					rattempt{day: day, off: off + lag, p: p, ip: cnIP(rng), kind: kinds[p]})
				continue
			}
			for _, off := range dayOffsets(rng, 1+rng.Intn(2), 360, 1320) {
				sched = append(sched, rattempt{day: day, off: off, p: p, ip: p.home, kind: kindLegit})
			}
		}
	}
	return people, sched
}

// genTravel: no attacker. ~30% of users take a two-day trip abroad (a day
// in transit, then logins from a German network); the rest stay home.
func genTravel(rng *rand.Rand, cfg RiskEvalConfig) ([]*rperson, []rattempt) {
	people := mkPeople(rng, "bt", cfg.Users, func(int) otpd.TokenType { return otpd.TokenSoft })
	trip := make(map[*rperson]int)
	for _, p := range victims(rng, people) {
		p.travelIP = net.IPv4(141, byte(1+rng.Intn(200)), byte(rng.Intn(256)), byte(1+rng.Intn(250)))
		trip[p] = 2 + rng.Intn(cfg.Days-3)
	}

	var sched []rattempt
	for day := 0; day < cfg.Days; day++ {
		for _, p := range people {
			start, traveller := trip[p]
			if traveller && day == start-1 {
				continue // in transit
			}
			if traveller && (day == start || day == start+1) {
				// Afternoon logins keep the implied velocity plausible
				// (the gap from the last home login stays > 8 h).
				off := dayOffsets(rng, 1, 720, 1200)[0]
				sched = append(sched, rattempt{day: day, off: off, p: p, ip: p.travelIP, kind: kindLegit})
				continue
			}
			lo, hi := 360, 1320
			if traveller {
				lo, hi = 720, 1260
			}
			for _, off := range dayOffsets(rng, 1+rng.Intn(2), lo, hi) {
				sched = append(sched, rattempt{day: day, off: off, p: p, ip: p.home, kind: kindLegit})
			}
		}
	}
	return people, sched
}

// riskArm is one scenario arm: a fresh deployment and what its principals
// hold.
type riskArm struct {
	*deployment
	secrets map[string][]byte     // user → token seed
	phones  map[string]*sms.Phone // user → handset (SMS accounts)
}

// newArm deploys fresh infrastructure for one arm of one scenario and
// enrols the population; the on arm carries the risk gate and imports each
// account's pre-evaluation login history.
func newArm(cfg RiskEvalConfig, people []*rperson, on bool) (*riskArm, error) {
	var events *eventstream.Bus
	var exempt []string
	if on {
		events = cfg.Events
	}
	for _, p := range people {
		if p.exempt {
			exempt = append(exempt, p.name)
		}
	}
	d, err := deploy(cfg.Start.AddDate(0, 0, -warmupDays-1), events, pam.ModeFull, exempt, on)
	if err != nil {
		return nil, err
	}
	arm := &riskArm{
		deployment: d,
		secrets:    make(map[string][]byte),
		phones:     make(map[string]*sms.Phone),
	}
	for _, p := range people {
		if err := arm.enrol(p); err != nil {
			d.inf.Close()
			return nil, err
		}
	}

	if on {
		// Import each account's pre-evaluation history: habitual network,
		// country, and working hours (spread so no in-window hour reads as
		// off-hours). This is what a production deployment accumulates
		// before the adaptive tier is switched on.
		hours := []int{6, 9, 12, 15, 18, 21}
		for _, p := range people {
			for i := 0; i < warmupDays; i++ {
				at := cfg.Start.AddDate(0, 0, i-warmupDays).
					Add(time.Duration(hours[i%len(hours)]) * time.Hour)
				d.engine.RecordSuccess(p.name, p.home, at)
			}
		}
	}
	return arm, nil
}

func (arm *riskArm) enrol(p *rperson) error {
	class := idm.ClassUser
	if p.exempt {
		class = idm.ClassGateway
	}
	if _, err := arm.inf.CreateUser(p.name, p.name+"@hpc.example", p.password, class); err != nil {
		return err
	}
	var enr *otpd.Enrollment
	var err error
	switch p.device {
	case otpd.TokenSMS:
		enr, arm.phones[p.name], err = arm.inf.PairSMS(p.name, p.phone)
	case otpd.TokenSoft:
		enr, err = arm.inf.PairSoft(p.name)
	}
	if enr != nil {
		arm.secrets[p.name] = enr.Secret
	}
	return err
}

// code is the second factor the attempt's principal holds at at.
func (arm *riskArm) code(a *rattempt, at time.Time, conv *deviceConv) (string, error) {
	p := a.p
	switch a.kind {
	case kindStuff:
		return "", errors.New("attacker holds no second factor")
	case kindReplay:
		// The code the victim consumed replayLag ago, inside the same
		// TOTP step.
		return otp.TOTP(arm.secrets[p.name], at.Add(-replayLag), arm.inf.OTP.OTPOptions())
	default:
		// legit: the user's own device. simswap: the ported phone receives
		// this attempt's text. phish: the relay reads the current code off
		// the victim's screen. All three resolve to the live device value.
		if p.device == otpd.TokenSMS {
			return conv.smsCode()
		}
		sec := arm.secrets[p.name]
		if sec == nil {
			return "", errors.New("unpaired")
		}
		return otp.TOTP(sec, at, arm.inf.OTP.OTPOptions())
	}
}

// run replays the schedule through the arm's stack and tallies the
// outcomes by principal: legitimate users against attackers.
func (arm *riskArm) run(start time.Time, sched []rattempt) RiskArmStats {
	var stats RiskArmStats
	for i := range sched {
		a := &sched[i]
		date := start.AddDate(0, 0, a.day)
		at := date.Add(a.off)

		// Every principal knows the account's real password (all scripted
		// attacks assume it leaked). A code-less attacker answers with a
		// structurally invalid guess (7 digits; otpd requires exactly 6):
		// a well-formed one like "000000" would carry a real
		// ~1e-6-per-window chance of matching the run's random secrets —
		// faithful to a guessing attacker, but a determinism hole for a
		// byte-identical evaluation.
		conv := &deviceConv{
			password: a.p.password, guess: "0000000", handset: arm.phones[a.p.name],
			code: func(c *deviceConv) (string, error) { return arm.code(a, at, c) },
		}
		granted := arm.login(date, at, a.p.name, a.ip, conv, nil)

		if a.attacker() {
			stats.AttackerTries++
			if granted {
				stats.Breaches++
			}
		} else {
			stats.LegitAttempts++
			if granted {
				stats.LegitGranted++
			}
			if conv.prompted {
				stats.LegitPrompts++
			}
		}
	}
	stats.SMS = arm.inf.SMS.Cost().Messages
	if arm.engine != nil {
		dec := func(name string) int {
			return int(arm.inf.Obs.Counter("risk_decisions_total", "decision", name).Value())
		}
		stats.Skips, stats.Allows = dec("skip"), dec("allow")
		stats.StepUps, stats.Denies = dec("step_up"), dec("deny")
	}
	return stats
}

// RunRiskEval executes every attack-mix scenario engine-off and engine-on
// and returns the comparative result. Deterministic per config.
func RunRiskEval(cfg RiskEvalConfig) (*RiskEvalResult, error) {
	cfg = cfg.withDefaults()
	res := &RiskEvalResult{Config: cfg}

	scenarios := []struct {
		name, desc string
		gen        func(*rand.Rand, RiskEvalConfig) ([]*rperson, []rattempt)
	}{
		{"credential_stuffing", "leaked passwords sprayed from a botnet; exempt gateways are the engine-off exposure", genStuffing},
		{"sim_swap_sms", "victim's phone number ported; the attacker receives the token texts", genSimSwap},
		{"otp_replay", "real-time phish relays fresh codes; stale replays hit otpd's consume-once rule", genReplay},
		{"benign_travel", "no attacker: established users travel abroad and must step up, not lock out", genTravel},
	}

	for si, sc := range scenarios {
		rng := rand.New(rand.NewSource(cfg.Seed*1000 + int64(si)))
		people, sched := sc.gen(rng, cfg)
		sortSchedule(sched)

		sr := RiskScenarioResult{Name: sc.name, Description: sc.desc}
		for _, on := range []bool{false, true} {
			arm, err := newArm(cfg, people, on)
			if err != nil {
				return nil, fmt.Errorf("riskeval %s: %w", sc.name, err)
			}
			if on {
				sr.On = arm.run(cfg.Start, sched)
			} else {
				sr.Off = arm.run(cfg.Start, sched)
			}
			arm.inf.Close()
		}
		res.Scenarios = append(res.Scenarios, sr)
		if cfg.Logf != nil {
			cfg.Logf("riskeval: %-20s off: %d/%d breaches, %d prompts  on: %d/%d breaches, %d prompts",
				sc.name, sr.Off.Breaches, sr.Off.AttackerTries, sr.Off.LegitPrompts,
				sr.On.Breaches, sr.On.AttackerTries, sr.On.LegitPrompts)
		}
	}
	return res, nil
}

func pct(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

func riskBar(frac float64, width int) string {
	n := int(frac*float64(width) + 0.5)
	if n == 0 && frac > 0 {
		n = 1
	}
	if n > width {
		n = width
	}
	return strings.Repeat("#", n) + strings.Repeat(" ", width-n)
}

// Report renders the FIGURES-style comparison. Byte-stable per config.
func (r *RiskEvalResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ADAPTIVE-MFA ATTACK-MIX EVALUATION (risk engine off vs on)\n")
	fmt.Fprintf(&b, "==========================================================\n")
	fmt.Fprintf(&b, "%d accounts x %d days per scenario, seed %d; policy: skip < 0.05 (history >= 20), step-up >= 0.50, deny >= 1.20\n",
		r.Config.Users, r.Config.Days, r.Config.Seed)
	fmt.Fprintf(&b, "Both arms replay one deterministic schedule over the real PAM -> RADIUS -> otpd path; only the risk gate differs.\n\n")

	fmt.Fprintf(&b, "%-20s %-4s %7s %8s %8s %6s %8s %9s\n",
		"scenario", "arm", "legit", "granted", "prompted", "sms", "attacks", "breached")
	for _, sc := range r.Scenarios {
		row := func(arm string, s RiskArmStats) {
			name := ""
			if arm == "off" {
				name = sc.Name
			}
			fmt.Fprintf(&b, "%-20s %-4s %7d %8d %8d %6d %8d %9d\n",
				name, arm, s.LegitAttempts, s.LegitGranted, s.LegitPrompts,
				s.SMS, s.AttackerTries, s.Breaches)
		}
		row("off", sc.Off)
		row("on", sc.On)
	}

	fmt.Fprintf(&b, "\n%-20s %18s %22s %20s\n",
		"scenario", "MFA prompts", "attacker success", "legit success")
	for _, sc := range r.Scenarios {
		fmt.Fprintf(&b, "%-20s %7d -> %7d %9.1f%% -> %6.1f%% %8.1f%% -> %5.1f%%\n",
			sc.Name,
			sc.Off.LegitPrompts, sc.On.LegitPrompts,
			pct(sc.Off.Breaches, sc.Off.AttackerTries), pct(sc.On.Breaches, sc.On.AttackerTries),
			pct(sc.Off.LegitGranted, sc.Off.LegitAttempts), pct(sc.On.LegitGranted, sc.On.LegitAttempts))
	}

	var skips, allows, stepUps, denies int
	for _, sc := range r.Scenarios {
		skips += sc.On.Skips
		allows += sc.On.Allows
		stepUps += sc.On.StepUps
		denies += sc.On.Denies
	}
	fmt.Fprintf(&b, "\ngate decisions (on arms): skip=%d allow=%d step_up=%d deny=%d\n",
		skips, allows, stepUps, denies)

	fmt.Fprintf(&b, "\nFIGURE R1. Token prompts per legitimate login (usability)\n")
	for _, sc := range r.Scenarios {
		off := pct(sc.Off.LegitPrompts, sc.Off.LegitAttempts) / 100
		on := pct(sc.On.LegitPrompts, sc.On.LegitAttempts) / 100
		fmt.Fprintf(&b, "  %-20s off |%s| %4.0f%%\n", sc.Name, riskBar(off, 24), 100*off)
		fmt.Fprintf(&b, "  %-20s on  |%s| %4.0f%%\n", "", riskBar(on, 24), 100*on)
	}
	fmt.Fprintf(&b, "\nFIGURE R2. Attacker success rate (security)\n")
	for _, sc := range r.Scenarios {
		if sc.Off.AttackerTries == 0 {
			fmt.Fprintf(&b, "  %-20s (no attacker in this mix)\n", sc.Name)
			continue
		}
		off := pct(sc.Off.Breaches, sc.Off.AttackerTries) / 100
		on := pct(sc.On.Breaches, sc.On.AttackerTries) / 100
		fmt.Fprintf(&b, "  %-20s off |%s| %4.0f%%\n", sc.Name, riskBar(off, 24), 100*off)
		fmt.Fprintf(&b, "  %-20s on  |%s| %4.0f%%\n", "", riskBar(on, 24), 100*on)
	}
	return b.String()
}

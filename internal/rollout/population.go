package rollout

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"openmfa/internal/idm"
	"openmfa/internal/otpd"
	"openmfa/internal/sms"
)

// person is one synthetic account and its behaviour profile.
type person struct {
	name     string
	class    idm.AccountClass
	password string
	pubkey   bool

	createdDay int // day index the account exists from
	pairDay    int // day index of device pairing; -1 = never pairs
	device     otpd.TokenType
	phone      string

	// Mean successful logins/day from outside and inside the center.
	extRate, intRate float64
	// tty is the probability a login allocates a terminal (§4.1).
	tty float64
	// shell reported in auth-log telemetry.
	shell string

	// Populated when the pairing happens.
	secret     []byte     // soft token seed
	handset    *sms.Phone // where SMS token texts arrive
	staticCode string
	paired     bool
}

// classMix is the population composition. The §2/§4.1 description: most
// users are interactive researchers; "a non-negligible number of user
// accounts, on the order of hundreds" (out of >10,000) automate logins;
// gateways and community accounts negotiate on behalf of thousands; staff
// are outnumbered "a hundredfold".
type classShare struct {
	class idm.AccountClass
	share float64
}

var classMix = []classShare{
	{idm.ClassUser, 0.878},     // interactive researchers
	{idm.ClassCommunity, 0.05}, // heavily scripted individual accounts
	{idm.ClassGateway, 0.015},  // science gateways / community accounts
	{idm.ClassStaff, 0.025},    // center staff
	{idm.ClassTraining, 0.032}, // workshop accounts (Table 1: ~3% of pairings)
}

// deviceMix is the Table 1 target conditioned on non-training pairings:
// soft 55.38 / (100-2.97), sms 40.22 / (100-2.97), hard 1.43 / (100-2.97).
var deviceMix = []struct {
	typ otpd.TokenType
	p   float64
}{
	{otpd.TokenSoft, 0.5538 / 0.9703},
	{otpd.TokenSMS, 0.4022 / 0.9703},
	{otpd.TokenHard, 0.0143 / 0.9703},
}

func pickDevice(rng *rand.Rand) otpd.TokenType {
	x := rng.Float64()
	acc := 0.0
	for _, d := range deviceMix {
		acc += d.p
		if x < acc {
			return d.typ
		}
	}
	return otpd.TokenSoft
}

// pairingWeights builds the per-day pairing-date distribution that shapes
// Figure 6. The paper's observed ordering is encoded directly: September
// 7th (the day after phase 2 began) ranks first and October 4th (the
// mandatory deadline) ranks fourth, with the August 10th announcement and
// September 6th between them.
func (s *sim) pairingWeights() []float64 {
	w := make([]float64, s.metrics.Days)
	// The schedule keeps DayIndex's clamp on purpose: a phase date outside
	// a shortened calendar lands on its edge day, so every phase still
	// has a day index inside the calendar and the phases stay in order.
	announce := s.metrics.DayIndex(s.cfg.Announce)
	phase2 := s.metrics.DayIndex(s.cfg.Phase2)
	phase3 := s.metrics.DayIndex(s.cfg.Phase3)
	for d := range w {
		date := s.metrics.Date(d)
		switch {
		case d < announce:
			w[d] = 0.5 // staff beta
		case d == announce:
			w[d] = 80 // mass announcement spike: rank 3
		case d < phase2:
			// phase 1 opt-in, gentle decay
			w[d] = 12 - 4*float64(d-announce)/float64(phase2-announce)
		case d == phase2:
			w[d] = 95 // phase 2 begins: rank 2
		case d == phase2+1:
			w[d] = 170 // September 7th: rank 1
		case d < phase3:
			w[d] = 25 - 13*float64(d-phase2-1)/float64(phase3-phase2)
		case d == phase3:
			w[d] = 60 // October 4th: rank 4
		case date.Year() == 2016:
			// trickle declining to the end of the year; "most users had
			// already paired ... before the mandatory deadline".
			w[d] = 4.5 * math.Exp(-float64(d-phase3)/40)
			if date.Month() == time.December && date.Day() >= 17 {
				w[d] *= 0.4 // winter holiday
			}
		default:
			// 2017: "Beginning with the Spring semester, new pairings
			// once again increased and have shown a slight declining
			// trend since."
			switch {
			case date.Month() == time.January && date.Day() < 17:
				w[d] = 0.6
			case date.Month() == time.January:
				w[d] = 4
			case date.Month() == time.February:
				w[d] = 3
			default:
				w[d] = 2
			}
		}
	}
	return w
}

// samplePairDay draws a pairing day from the weight vector.
func samplePairDay(rng *rand.Rand, weights []float64, total float64) int {
	x := rng.Float64() * total
	for d, v := range weights {
		x -= v
		if x < 0 {
			return d
		}
	}
	return len(weights) - 1
}

// workshopDays are the training-session dates (one per month or so).
func (s *sim) workshopDays() []int {
	dates := []time.Time{
		time.Date(2016, 8, 22, 0, 0, 0, 0, time.UTC),
		time.Date(2016, 9, 19, 0, 0, 0, 0, time.UTC),
		time.Date(2016, 10, 17, 0, 0, 0, 0, time.UTC),
		time.Date(2016, 11, 14, 0, 0, 0, 0, time.UTC),
		time.Date(2017, 2, 6, 0, 0, 0, 0, time.UTC),
		time.Date(2017, 3, 6, 0, 0, 0, 0, time.UTC),
	}
	var out []int
	for _, d := range dates {
		if !d.Before(s.cfg.Start) && !d.After(s.cfg.End) {
			out = append(out, s.metrics.DayIndex(d))
		}
	}
	if len(out) == 0 {
		out = []int{0}
	}
	return out
}

// buildPopulation samples the user base.
func (s *sim) buildPopulation() {
	rng := s.rng
	weights := s.pairingWeights()
	var totalW float64
	for _, v := range weights {
		totalW += v
	}
	workshops := s.workshopDays()
	phase3 := s.metrics.DayIndex(s.cfg.Phase3)

	for i := 0; i < s.cfg.Users; i++ {
		p := &person{
			name:     fmt.Sprintf("u%05d", i),
			password: fmt.Sprintf("pw-%05d", i),
		}
		x := rng.Float64()
		acc := 0.0
		for _, cs := range classMix {
			acc += cs.share
			if x < acc {
				p.class = cs.class
				break
			}
		}
		if p.class == "" {
			p.class = idm.ClassUser
		}

		switch p.class {
		case idm.ClassUser:
			p.extRate = 0.12 + rng.Float64()*0.5
			p.intRate = rng.Float64() * 0.25
			p.tty = 0.85
			p.shell = "/bin/bash"
			p.pubkey = rng.Float64() < 0.4
			p.device = pickDevice(rng)
			if rng.Float64() < 0.08 {
				p.pairDay = -1 // inactive accounts never pair
			} else {
				p.pairDay = samplePairDay(rng, weights, totalW)
			}
		case idm.ClassCommunity: // scripted individual accounts
			p.extRate = 8 + rng.Float64()*18
			p.intRate = 1 + rng.Float64()*3
			p.tty = 0.05
			p.shell = "/usr/bin/scp"
			p.pubkey = true
			p.device = pickDevice(rng)
			// Targeted users (§4.1) were contacted early, but took
			// until the countdown broke their scripts to finish
			// migrating: they pair in a band around phase 2 and are
			// all done by the mandatory deadline.
			p2 := s.metrics.DayIndex(s.cfg.Phase2)
			p3 := s.metrics.DayIndex(s.cfg.Phase3)
			if rng.Float64() < 0.9 {
				p.pairDay = p2 - 7 + rng.Intn(p3-p2+8)
			} else {
				p.pairDay = samplePairDay(rng, weights, totalW)
			}
		case idm.ClassGateway:
			p.extRate = 25 + rng.Float64()*35
			p.intRate = 4 + rng.Float64()*6
			p.tty = 0.0
			p.shell = "/bin/sh"
			p.pubkey = true
			p.pairDay = -1 // whitelisted, never pairs
		case idm.ClassStaff:
			p.extRate = 1.2 + rng.Float64()*2.2
			p.intRate = 0.8 + rng.Float64()*1.5
			p.tty = 0.6
			p.shell = "/bin/bash"
			p.pubkey = true
			p.device = pickDevice(rng)
			// Staff opted in during the internal beta (July) or right
			// at the announcement.
			p.pairDay = rng.Intn(s.metrics.DayIndex(s.cfg.Announce) + 3)
		case idm.ClassTraining:
			p.extRate = 0 // only log in on workshop days
			p.intRate = 0
			p.tty = 1.0
			p.shell = "/bin/bash"
			p.device = otpd.TokenTraining
			p.pairDay = workshops[rng.Intn(len(workshops))]
			p.staticCode = fmt.Sprintf("%06d", rng.Intn(1000000))
		}

		// Accounts pairing in 2017 are mostly new spring-semester users:
		// they exist only from shortly before their pairing day.
		if p.pairDay > phase3+60 {
			p.createdDay = p.pairDay - rng.Intn(3)
		}
		if p.device == otpd.TokenSMS {
			p.phone = fmt.Sprintf("512555%04d", i%10000)
		}
		s.people = append(s.people, p)
	}
}

// dayFactor scales activity for weekends and the winter holiday.
func (s *sim) dayFactor(date time.Time) float64 {
	f := 1.0
	switch date.Weekday() {
	case time.Saturday, time.Sunday:
		f *= 0.45
	}
	if (date.Month() == time.December && date.Day() >= 17) ||
		(date.Month() == time.January && date.Day() <= 2) {
		f *= 0.35 // "A decline in unique users is noted during the winter holiday."
	}
	return f
}

// poisson draws a Poisson variate (Knuth's method; λ here is small).
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 10000 {
			return k
		}
	}
}

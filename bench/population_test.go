package main

import (
	"sync"
	"testing"
	"time"

	"openmfa/internal/clock"
	"openmfa/internal/sms"
)

var paperMix = mix{table1: true, exempt: 0.30, wrongFirst: 0.10}

func drawOps(seed int64, n int, m mix) []op {
	tr := newTraffic(seed, newPopulation(256, m), m)
	ops := make([]op, n)
	for i := range ops {
		ops[i], _ = tr.nextOp()
	}
	return ops
}

func TestTrafficIsAFunctionOfTheSeed(t *testing.T) {
	a, b := drawOps(7, 5000, paperMix), drawOps(7, 5000, paperMix)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs between two draws of seed 7: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := drawOps(8, 5000, paperMix)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seed 8 produced the same sequence as seed 7")
	}
}

func TestTrafficVisitsEveryUserOncePerPass(t *testing.T) {
	const users = 256
	pop := newPopulation(users, paperMix)
	tr := newTraffic(3, pop, paperMix)
	seen := make(map[int32]bool)
	mfa, exempt, wrong, wraps := 0, 0, 0, 0
	for i := 0; i < 40*users; i++ {
		o, wrap := tr.nextOp()
		if o.kind == kindExempt {
			if wrap {
				t.Fatal("an exempt login stepped the clock")
			}
			if int(o.user) >= len(pop.gateways) {
				t.Fatalf("gateway index %d out of range", o.user)
			}
			exempt++
			continue
		}
		if wrap {
			if len(seen) != users {
				t.Fatalf("wrap after %d distinct users, want %d", len(seen), users)
			}
			seen = make(map[int32]bool)
			wraps++
		}
		if seen[o.user] {
			t.Fatalf("user %d taken twice in one pass", o.user)
		}
		seen[o.user] = true
		if o.kind != pop.users[o.user].kind {
			t.Fatalf("op kind %s for a %s user", o.kind, pop.users[o.user].kind)
		}
		mfa++
		if o.wrongFirst {
			wrong++
		}
	}
	if want := mfa/users - 1; wraps != want && wraps != want+1 {
		t.Errorf("%d wraps over %d MFA logins of %d users", wraps, mfa, users)
	}
	if share := float64(exempt) / float64(exempt+mfa); share < 0.27 || share > 0.33 {
		t.Errorf("exempt share %.3f, want ≈ 0.30", share)
	}
	if share := float64(wrong) / float64(mfa); share < 0.08 || share > 0.12 {
		t.Errorf("wrong-first share %.3f, want ≈ 0.10", share)
	}
}

func TestPopulationFollowsTable1(t *testing.T) {
	pop := newPopulation(2048, paperMix)
	count := make(map[kind]int)
	for _, u := range pop.users {
		count[u.kind]++
	}
	for k, wantPct := range map[kind]float64{kindSoft: 55, kindSMS: 40, kindTraining: 3, kindHard: 2} {
		if got := 100 * float64(count[k]) / 2048; got < wantPct-1 || got > wantPct+1 {
			t.Errorf("%s: %.1f %% of users, want %.0f %%", k, got, wantPct)
		}
	}
	if len(pop.gateways) == 0 || pop.exemptionRules() == "" {
		t.Error("a mix with exempt traffic needs gateways and a rule exempting them")
	}
	if plain := newPopulation(64, mix{}); len(plain.gateways) != 0 || plain.exemptionRules() != "" || plain.users[63].kind != kindSoft {
		t.Error("the plain mix is all soft tokens and no gateways")
	}
}

// Two clients hammer the source: no user may ever be handed out twice at
// the same simulated time (that would be a replayed code), and the clock
// must have stepped once per completed pass.
func TestSourceNeverReusesAStepForAUser(t *testing.T) {
	const users, passes = 32, 200
	pop := newPopulation(users, mix{})
	sim := clock.NewSim(epochStart)
	src := newSource(newTraffic(1, pop, mix{}), sim, 30*time.Second)
	src.setLimit(users * passes)

	var mu sync.Mutex
	last := make(map[int32]time.Time)
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				o, ok := src.take()
				if !ok {
					return
				}
				now := sim.Now()
				mu.Lock()
				if prev, seen := last[o.user]; seen && !now.After(prev) {
					t.Errorf("user %d taken at %v and again at %v", o.user, prev, now)
				}
				last[o.user] = now
				mu.Unlock()
				src.done()
			}
		}()
	}
	wg.Wait()
	if got, want := sim.Now().Sub(epochStart), time.Duration(passes-1)*30*time.Second; got != want {
		t.Errorf("clock advanced %v over %d passes, want %v", got, passes, want)
	}
	if _, ok := src.take(); ok {
		t.Error("take handed out a login past the limit")
	}
}

func TestZeroDelayCarrierDeliversWithoutAdvancingTheClock(t *testing.T) {
	sim := clock.NewSim(epochStart)
	gw := sms.NewGateway(sim, *zeroDelayCarrier(), 1)
	ph, err := gw.Register("5125550100")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ { // never lost, never delayed
		inbox := ph.Wait()
		if _, err := gw.Send(ph.Number, "512000", "Your HPC token code is 123456"); err != nil {
			t.Fatal(err)
		}
		select {
		case msg := <-inbox:
			if got := msg.Body[len(msg.Body)-6:]; got != "123456" {
				t.Fatalf("picked up %q", got)
			}
		case <-time.After(smsWait):
			t.Fatalf("message %d not delivered on a stopped clock", i)
		}
	}
}

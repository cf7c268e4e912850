package risk

import (
	"net"
	"testing"
	"time"

	"openmfa/internal/geoip"
)

var (
	t0     = time.Date(2016, 11, 1, 15, 0, 0, 0, time.UTC) // afternoon UTC
	austin = net.ParseIP("129.114.3.7")
	texas2 = net.ParseIP("129.114.9.9") // same /16, different /24
	china  = net.ParseIP("159.226.40.1")
	german = net.ParseIP("141.20.1.2")
)

func newEngine() *Engine {
	return New(Options{Geo: geoip.Synthetic()})
}

// seed establishes a stable Austin daytime history for the user.
func seed(e *Engine, user string, days int) {
	for i := 0; i < days; i++ {
		at := t0.AddDate(0, 0, -days+i)
		e.RecordSuccess(user, austin, at)
	}
}

func TestFirstLoginIsLowRisk(t *testing.T) {
	e := newEngine()
	a := e.Decide("newbie", austin, t0)
	if a.Outcome != OutcomeAllow || a.Score != 0 {
		t.Fatalf("first login = %+v", a)
	}
}

func TestFamiliarPatternStaysLow(t *testing.T) {
	e := newEngine()
	seed(e, "alice", 30)
	a := e.Decide("alice", austin, t0)
	if a.Outcome != OutcomeAllow {
		t.Fatalf("familiar login = %+v", a)
	}
}

func TestNewNetworkElevates(t *testing.T) {
	e := newEngine()
	seed(e, "alice", 30)
	a := e.Decide("alice", texas2, t0)
	// New /24 alone: 0.35 < 0.50 → still low, but scored.
	if a.Score <= 0 {
		t.Fatalf("new network not scored: %+v", a)
	}
	if a.Outcome != OutcomeAllow {
		t.Fatalf("same-country new net should stay low: %+v", a)
	}
}

func TestNewCountryElevates(t *testing.T) {
	e := newEngine()
	seed(e, "alice", 30)
	a := e.Decide("alice", german, t0)
	// New network (0.35) + new country (0.55) = 0.90 → step-up.
	if a.Outcome != OutcomeStepUp {
		t.Fatalf("new country = %+v", a)
	}
}

func TestImpossibleTravelCritical(t *testing.T) {
	e := newEngine()
	seed(e, "alice", 30)
	// Last success in Austin at t0; a login from China 1 hour later is
	// ~12,000 km/h: new net + new country + impossible speed = 1.70.
	e.RecordSuccess("alice", austin, t0)
	a := e.Decide("alice", china, t0.Add(time.Hour))
	if a.Outcome != OutcomeDeny {
		t.Fatalf("impossible travel = %+v", a)
	}
	found := false
	for _, r := range a.Reasons {
		if r.Feature == FeatureImpossibleTravel {
			found = true
		}
	}
	if !found {
		t.Fatalf("no impossible-travel reason: %v", a.ReasonStrings())
	}
}

func TestSlowTravelIsFine(t *testing.T) {
	e := newEngine()
	seed(e, "alice", 30)
	e.RecordSuccess("alice", austin, t0)
	// Same trip a week later: plausible flight; only novelty scores.
	a := e.Decide("alice", china, t0.AddDate(0, 0, 7))
	for _, r := range a.Reasons {
		if r.Feature == FeatureImpossibleTravel {
			t.Fatalf("slow travel flagged: %v", a.ReasonStrings())
		}
	}
}

func TestTravelBecomesFamiliar(t *testing.T) {
	e := newEngine()
	seed(e, "alice", 30)
	// Once the user has logged in from Germany, it is no longer novel.
	e.RecordSuccess("alice", german, t0)
	a := e.Decide("alice", german, t0.AddDate(0, 0, 1))
	if a.Outcome != OutcomeAllow {
		t.Fatalf("familiar country still scored: %+v", a)
	}
}

func TestFailurePressure(t *testing.T) {
	e := newEngine()
	seed(e, "alice", 30)
	for i := 0; i < 12; i++ {
		e.RecordFailure("alice", austin, t0.Add(time.Duration(i)*time.Minute))
	}
	a := e.Decide("alice", austin, t0.Add(15*time.Minute))
	// Capped at 10 × 0.12 = 1.20 → deny.
	if a.Outcome != OutcomeDeny {
		t.Fatalf("failure storm = %+v", a)
	}
	// Pressure decays once the window passes.
	a2 := e.Decide("alice", austin, t0.Add(failWindow+20*time.Minute))
	if a2.Score != 0 {
		t.Fatalf("stale failures still scored: %+v", a2)
	}
}

func TestOffHoursSignal(t *testing.T) {
	e := newEngine()
	seed(e, "alice", 40) // all at 15:00 UTC
	a := e.Decide("alice", austin, time.Date(2016, 11, 2, 3, 0, 0, 0, time.UTC))
	if a.Score == 0 {
		t.Fatalf("off-hours login not scored: %+v", a)
	}
	// Adjacent hour counts as usual.
	b := e.Decide("alice", austin, time.Date(2016, 11, 2, 16, 0, 0, 0, time.UTC))
	if b.Score != 0 {
		t.Fatalf("adjacent hour scored: %+v", b)
	}
}

func TestNoGeoDBDegradesGracefully(t *testing.T) {
	e := New(Options{})
	seed(e, "alice", 30)
	a := e.Decide("alice", china, t0)
	// Only the new-network signal is available.
	if a.Outcome != OutcomeAllow || a.Score == 0 {
		t.Fatalf("geo-less decision = %+v", a)
	}
}

func TestUsersCount(t *testing.T) {
	e := newEngine()
	e.RecordSuccess("a", austin, t0)
	e.RecordSuccess("b", austin, t0)
	e.RecordSuccess("a", austin, t0)
	if e.Users() != 2 {
		t.Fatalf("Users = %d", e.Users())
	}
}

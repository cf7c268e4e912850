package risk

import (
	"fmt"
	"strings"
)

// Feature names used in decision explanations, reason counters, and the
// declarative policy. One per scored signal.
const (
	FeatureNewNetwork       = "new_network"
	FeatureNewCountry       = "new_country"
	FeatureImpossibleTravel = "impossible_travel"
	FeatureUnknownGeo       = "unknown_geo"
	FeatureOffHours         = "off_hours"
	FeatureFailPressure     = "fail_pressure"
)

// FeatureNames lists every scored feature (stable order).
var FeatureNames = []string{
	FeatureNewNetwork, FeatureNewCountry, FeatureImpossibleTravel,
	FeatureUnknownGeo, FeatureOffHours, FeatureFailPressure,
}

// Weights tune the scoring. The zero value is unusable; use
// DefaultWeights.
type Weights struct {
	NewNetwork      float64 // first login from this /24
	NewCountry      float64 // first login from this country
	ImpossibleSpeed float64 // travel faster than MaxKmh
	FailPressure    float64 // per recent failed attempt (capped)
	OffHours        float64 // outside the user's usual window
	UnknownGeo      float64 // source resolves to no known range (conservative)
	MaxKmh          float64 // fastest plausible travel
	// ElevatedAt / CriticalAt are the step-up / deny thresholds.
	ElevatedAt, CriticalAt float64
}

// DefaultWeights is a conservative profile: a single novelty signal
// elevates; novelty plus impossible travel (or heavy failure pressure)
// becomes critical.
func DefaultWeights() Weights {
	return Weights{
		NewNetwork:      0.35,
		NewCountry:      0.55,
		ImpossibleSpeed: 0.80,
		FailPressure:    0.12,
		OffHours:        0.15,
		UnknownGeo:      0.25,
		MaxKmh:          950, // commercial flight
		ElevatedAt:      0.50,
		CriticalAt:      1.20,
	}
}

// Policy is the declarative decision policy: feature weights, the
// step-up/deny thresholds they feed (Weights.ElevatedAt / CriticalAt),
// and the adaptive-skip tier that grants clean, well-established
// accounts an MFA bypass for the attempt.
type Policy struct {
	Weights Weights
	// AllowSkip enables the skip outcome. Off (the default), low scores
	// produce OutcomeAllow — the gate abstains and the Figure 1 stack
	// runs unchanged, which is the pre-adaptive behaviour.
	AllowSkip bool
	// SkipBelow is the exclusive score ceiling for a skip (default 0.05:
	// any scored signal disqualifies).
	SkipBelow float64
	// MinHistory is the successful-login count an account needs before
	// it can earn a skip (default 20).
	MinHistory int
}

// DefaultPolicy scores with DefaultWeights and keeps adaptive skip off:
// every low score abstains (allow) and the Figure 1 stack runs unchanged.
func DefaultPolicy() Policy {
	return Policy{Weights: DefaultWeights(), SkipBelow: 0.05, MinHistory: 20}
}

// AdaptivePolicy is DefaultPolicy with the skip tier enabled — the
// prompt-reduction mode evaluated by the rollout attack-mix scenarios.
func AdaptivePolicy() Policy {
	p := DefaultPolicy()
	p.AllowSkip = true
	return p
}

func (p Policy) withDefaults() Policy {
	if p.SkipBelow == 0 {
		p.SkipBelow = 0.05
	}
	if p.MinHistory == 0 {
		p.MinHistory = 20
	}
	return p
}

// Outcome is the per-attempt verdict.
type Outcome int

// Outcomes, in increasing severity.
const (
	// OutcomeAllow: no adaptive action; the stack (including any
	// exemption) runs unchanged.
	OutcomeAllow Outcome = iota
	// OutcomeSkip: the account earned an MFA bypass for this attempt.
	OutcomeSkip
	// OutcomeStepUp: force the second factor, cancelling any exemption.
	OutcomeStepUp
	// OutcomeDeny: refuse the attempt outright.
	OutcomeDeny

	outcomeCount = iota
)

// String names the outcome (used as the risk_decisions_total label and
// the risk event's Result).
func (o Outcome) String() string {
	switch o {
	case OutcomeAllow:
		return "allow"
	case OutcomeSkip:
		return "skip"
	case OutcomeStepUp:
		return "step_up"
	case OutcomeDeny:
		return "deny"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Outcomes lists every outcome (stable order).
var Outcomes = []Outcome{OutcomeAllow, OutcomeSkip, OutcomeStepUp, OutcomeDeny}

// Reason is one scored feature's contribution to a decision.
type Reason struct {
	Feature string  // feature name constant
	Weight  float64 // score contribution
	Detail  string  // human-readable explanation
}

// Decision is the scored verdict for one attempt.
type Decision struct {
	Outcome Outcome
	Score   float64
	Reasons []Reason
	// History is the account's successful-login count at decision time.
	History int
}

// ReasonStrings flattens the explanations.
func (d Decision) ReasonStrings() []string {
	out := make([]string, len(d.Reasons))
	for i, r := range d.Reasons {
		out[i] = r.Detail
	}
	return out
}

// Detail is the one-line deterministic rendering published on the event
// bus and attached to flight-recorder spans.
func (d Decision) Detail() string {
	var b strings.Builder
	fmt.Fprintf(&b, "score=%.2f", d.Score)
	for _, r := range d.Reasons {
		b.WriteString("; ")
		b.WriteString(r.Detail)
	}
	return b.String()
}

package rollout

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"openmfa/internal/eventstream"
	"openmfa/internal/geoip"
	"openmfa/internal/risk"
)

func smallRiskCfg() RiskEvalConfig {
	return RiskEvalConfig{Users: 8, Days: 5, Seed: 7}
}

// The headline claims of DESIGN.md §14: the on arm removes every scripted
// breach without costing a single legitimate login, and cuts prompts.
func TestRiskEvalSecurityAndUsability(t *testing.T) {
	res, err := RunRiskEval(smallRiskCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scenarios) < 3 {
		t.Fatalf("scenarios = %d, want >= 3 attack mixes", len(res.Scenarios))
	}
	byName := map[string]RiskScenarioResult{}
	for _, sc := range res.Scenarios {
		byName[sc.Name] = sc
	}

	// Engine off, the scripted attacks land: leaked passwords walk through
	// exempt accounts, and intercepted/relayed codes beat the second factor.
	for _, name := range []string{"credential_stuffing", "sim_swap_sms", "otp_replay"} {
		sc, ok := byName[name]
		if !ok {
			t.Fatalf("scenario %q missing", name)
		}
		if sc.Off.AttackerTries == 0 {
			t.Fatalf("%s: no attacker attempts scheduled", name)
		}
		if sc.Off.Breaches == 0 {
			t.Errorf("%s: engine-off arm shows no breaches; the scenario exercises nothing", name)
		}
		if sc.On.Breaches != 0 {
			t.Errorf("%s: %d breaches with the engine on", name, sc.On.Breaches)
		}
	}
	// Stale replays are stopped by consume-once even with the engine off.
	or := byName["otp_replay"]
	if or.Off.Breaches >= or.Off.AttackerTries {
		t.Errorf("otp_replay: every attack succeeded engine-off; consume-once should stop stale replays (%d/%d)",
			or.Off.Breaches, or.Off.AttackerTries)
	}

	for _, sc := range res.Scenarios {
		// No usability regression: the on arm grants every login the off
		// arm granted.
		if sc.On.LegitGranted != sc.Off.LegitGranted || sc.On.LegitGranted != sc.On.LegitAttempts {
			t.Errorf("%s: legit granted off=%d/%d on=%d/%d; adaptive arm must not lock out legitimate users",
				sc.Name, sc.Off.LegitGranted, sc.Off.LegitAttempts, sc.On.LegitGranted, sc.On.LegitAttempts)
		}
		// And fewer prompts: established accounts earn the skip.
		if sc.On.LegitPrompts >= sc.Off.LegitPrompts {
			t.Errorf("%s: prompts off=%d on=%d, want a reduction", sc.Name, sc.Off.LegitPrompts, sc.On.LegitPrompts)
		}
		if sc.On.Skips == 0 {
			t.Errorf("%s: gate never granted a skip", sc.Name)
		}
	}

	// Travellers step up rather than lock out; the SMS bill shrinks.
	bt := byName["benign_travel"]
	if bt.On.StepUps == 0 {
		t.Error("benign_travel: no step-ups recorded for novel-country logins")
	}
	if bt.On.Denies != 0 {
		t.Errorf("benign_travel: %d denials in a no-attacker mix", bt.On.Denies)
	}
	cs := byName["credential_stuffing"]
	if cs.On.SMS >= cs.Off.SMS {
		t.Errorf("credential_stuffing: sms off=%d on=%d, want fewer texts with adaptive skip", cs.Off.SMS, cs.On.SMS)
	}

	if !strings.Contains(res.Report(), "FIGURE R1") {
		t.Error("report missing the usability figure")
	}
}

// Two runs with the same config must be byte-identical — report, stats,
// and daily aggregates (the property `cmd/rollout -risk` double-runs).
func TestRiskEvalDeterministic(t *testing.T) {
	run := func() *RiskEvalResult {
		res, err := RunRiskEval(smallRiskCfg())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if ar, br := a.Report(), b.Report(); ar != br {
		t.Fatalf("reports differ between identical runs:\n--- a\n%s\n--- b\n%s", ar, br)
	}
	if fmt.Sprintf("%+v", a.Scenarios) != fmt.Sprintf("%+v", b.Scenarios) {
		t.Fatal("scenario stats differ between identical runs")
	}
	if seriesDump(a.Metrics) != seriesDump(b.Metrics) || a.SMSTotal != b.SMSTotal {
		t.Fatal("daily aggregates differ between identical runs")
	}
}

// The JSONL dump of one run's stream, replayed offline through fresh
// engines, yields byte-identical decision sequences (the -events-out
// regression path).
func TestRiskEvalReplayRegression(t *testing.T) {
	bus := eventstream.NewBus(nil)
	sub := bus.Subscribe(1 << 16)

	cfg := smallRiskCfg()
	cfg.Events = bus
	if _, err := RunRiskEval(cfg); err != nil {
		t.Fatal(err)
	}
	sub.Close()

	var jsonl bytes.Buffer
	enc := json.NewEncoder(&jsonl)
	n := 0
	for ev := range sub.Events() {
		if err := enc.Encode(ev); err != nil {
			t.Fatal(err)
		}
		n++
	}
	if sub.Dropped() != 0 {
		t.Fatalf("dropped %d events", sub.Dropped())
	}
	if n == 0 {
		t.Fatal("no events captured")
	}

	replay := func() string {
		e := risk.New(risk.Options{Geo: geoip.Synthetic(), Policy: risk.AdaptivePolicy()})
		dec := json.NewDecoder(bytes.NewReader(jsonl.Bytes()))
		var out strings.Builder
		for dec.More() {
			var ev eventstream.Event
			if err := dec.Decode(&ev); err != nil {
				t.Fatal(err)
			}
			if d, ok := e.Observe(ev); ok {
				fmt.Fprintf(&out, "%s %s %s %s\n", ev.Time.Format("2006-01-02T15:04:05"), ev.User, d.Outcome, d.Detail())
			}
		}
		return out.String()
	}
	a, b := replay(), replay()
	if a == "" {
		t.Fatal("replay produced no decisions")
	}
	if a != b {
		t.Fatal("offline replays of the same JSONL diverged")
	}
}

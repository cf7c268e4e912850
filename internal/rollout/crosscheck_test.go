package rollout

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"openmfa/internal/authwatch"
	"openmfa/internal/eventstream"
	"openmfa/internal/leakcheck"
	"openmfa/internal/metrics"
)

// simRun is what CrossCheck needs from either simulator, plus a rendering
// of everything the run reports.
type simRun struct {
	daily   *metrics.Daily
	sms     int
	figures string
}

func seriesDump(m *metrics.Daily) string {
	var b strings.Builder
	for _, name := range m.Names() {
		fmt.Fprintln(&b, name, m.Series(name))
	}
	return b.String()
}

// TestStreamingParity runs each simulator over a short calendar with the
// event bus attached and asserts the streaming authwatch aggregates equal
// the simulator's reference counts exactly, day by day — the end-to-end
// proof that the live event pipeline carries the same information the
// paper's post-hoc log analysis did — and that CrossCheck bites when they
// do not. The rollout calendar spans the phase-2 -> phase-3 transition.
func TestStreamingParity(t *testing.T) {
	sims := []struct {
		name string
		run  func(bus *eventstream.Bus) (simRun, error)
	}{
		{"rollout", func(bus *eventstream.Bus) (simRun, error) {
			res, err := Run(Config{Users: 80, Seed: 7,
				Start: day("2016-09-25"), End: day("2016-10-10"), Events: bus})
			if err != nil {
				return simRun{}, err
			}
			return simRun{res.Metrics, res.SMSMessages, fmt.Sprintln(res.TotalLogins, res.MFALogins,
				res.SMSMessages, res.Table1) + seriesDump(res.Metrics)}, nil
		}},
		{"riskeval", func(bus *eventstream.Bus) (simRun, error) {
			cfg := smallRiskCfg()
			cfg.Events = bus
			res, err := RunRiskEval(cfg)
			if err != nil {
				return simRun{}, err
			}
			return simRun{res.Metrics, res.SMSTotal, res.Report() + seriesDump(res.Metrics)}, nil
		}},
	}
	for _, sim := range sims {
		t.Run(sim.name, func(t *testing.T) {
			// core.New starts a login node, a portal, an admin API and a
			// directory server per deployment (eight deployments per risk
			// run); teardown must close them all.
			leakcheck.Check(t)
			bus := eventstream.NewBus(nil)
			watch := authwatch.New(authwatch.Config{})
			// A deep buffer makes drops structurally impossible: the
			// publisher and consumer run in the same process and the
			// buffer exceeds any burst.
			watch.Attach(bus, 1<<16)
			got, err := sim.run(bus)
			if err != nil {
				t.Fatal(err)
			}
			watch.Stop()

			if d := watch.Dropped(); d != 0 {
				t.Fatalf("watcher dropped %d events", d)
			}
			summary, err := CrossCheck(got.daily, got.sms, watch)
			if err != nil {
				t.Fatalf("streaming aggregates diverge from the reference:\n%v", err)
			}
			if !strings.Contains(summary, "authwatch:") || !strings.Contains(summary, "match") {
				t.Errorf("summary = %q", summary)
			}
			snap := watch.Snapshot()
			// (The small risk run's on arm skips its way out of every text;
			// the rollout run carries the SMS side of the parity.)
			if snap.Events == 0 || got.daily.Sum(SeriesTrafficExtMFA) == 0 || (sim.name == "rollout" && snap.SMSTotal == 0) {
				t.Fatalf("stream saw %d events, %d SMS; reference counted %v MFA logins — bus not wired through the run",
					snap.Events, snap.SMSTotal, got.daily.Sum(SeriesTrafficExtMFA))
			}

			// Event publication consumes no randomness: the figures are
			// identical without a bus.
			bare, err := sim.run(nil)
			if err != nil {
				t.Fatal(err)
			}
			if bare.figures != got.figures {
				t.Errorf("the bus changed the figures:\n--- with\n%s\n--- without\n%s", got.figures, bare.figures)
			}

			// Every way the two sides can disagree is reported by name.
			mustFail := func(what, want string, daily *metrics.Daily, sms int, w *authwatch.Watcher) {
				t.Helper()
				if _, err := CrossCheck(daily, sms, w); err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("%s: want a mismatch naming %q, got %v", what, want, err)
				}
			}
			first := got.daily.Date(0)
			got.daily.Add(first, SeriesTrafficAll, 1)
			mustFail("perturbed series", first.Format("2006-01-02")+" "+SeriesTrafficAll, got.daily, got.sms, watch)
			got.daily.Add(first, SeriesTrafficAll, -1)
			mustFail("perturbed SMS count", "sms total", got.daily, got.sms+1, watch)
			mustFail("empty stream", SeriesTrafficAll, got.daily, got.sms, authwatch.New(authwatch.Config{}))
			watch.Ingest(eventstream.Event{
				Time: time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC),
				Type: eventstream.TypeLogin, Result: "accept", Addr: "73.1.1.1", User: "ghost",
			})
			mustFail("out-of-calendar login", "outside the simulated calendar", got.daily, got.sms, watch)
		})
	}
}

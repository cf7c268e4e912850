// Command rollout regenerates the paper's evaluation: it simulates the
// phased MFA deployment over the Aug 2016 – Mar 2017 calendar, driving the
// real PAM → RADIUS → otpd stack for every login, and prints each figure
// and table alongside the paper's claims.
//
// Usage:
//
//	rollout -all                 # every experiment (default)
//	rollout -fig 3               # one figure (3, 4, 5, or 6)
//	rollout -table 1             # Table 1
//	rollout -costs               # the §3.3 SMS cost model
//	rollout -analysis            # the §4.1 log analysis
//	rollout -experiments         # EXPERIMENTS.md body (markdown)
//	rollout -risk                # adaptive-MFA attack-mix evaluation
//	rollout -users 1200 -seed 1  # population knobs
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"openmfa/internal/authwatch"
	"openmfa/internal/eventstream"
	"openmfa/internal/metrics"
	"openmfa/internal/rollout"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "rollout:", err)
		}
		os.Exit(1)
	}
}

// options is the parsed command line.
type options struct {
	users, riskUsers, riskDays, fig, table         int
	seed                                           int64
	costs, analysis, experiments, all, quiet, risk bool
	authWatch                                      bool
	eventsOut                                      string
}

func newFlags(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("rollout", flag.ContinueOnError)
	fs.IntVar(&o.users, "users", 1200, "population size")
	fs.Int64Var(&o.seed, "seed", 1, "random seed")
	fs.IntVar(&o.fig, "fig", 0, "print one figure (3..6)")
	fs.IntVar(&o.table, "table", 0, "print one table (1)")
	fs.BoolVar(&o.costs, "costs", false, "print the SMS cost model")
	fs.BoolVar(&o.analysis, "analysis", false, "print the §4.1 log analysis")
	fs.BoolVar(&o.experiments, "experiments", false, "print the EXPERIMENTS.md body")
	fs.BoolVar(&o.all, "all", false, "print everything")
	fs.BoolVar(&o.quiet, "q", false, "suppress progress output")
	fs.BoolVar(&o.risk, "risk", false, "run the adaptive-MFA attack-mix evaluation (engine off vs on) instead of the rollout simulation")
	fs.IntVar(&o.riskUsers, "risk-users", 24, "accounts per risk scenario")
	fs.IntVar(&o.riskDays, "risk-days", 8, "days per risk scenario")
	fs.BoolVar(&o.authWatch, "authwatch", false, "stream events through the live authwatch aggregator and cross-check it against the simulator's reference aggregates (non-zero exit on mismatch)")
	fs.StringVar(&o.eventsOut, "events-out", "", "write the run's auth-event stream as JSONL to this file (readable by loganalyze -format jsonl)")
	return fs
}

// validate rejects what no run can satisfy, before the simulation spends
// its twenty seconds: an unknown figure or table, and flags that belong to
// the mode that was not selected.
func (o *options) validate(fs *flag.FlagSet) error {
	switch o.fig {
	case 0, 3, 4, 5, 6:
	default:
		return fmt.Errorf("unknown figure %d (have 3, 4, 5, 6)", o.fig)
	}
	if o.table != 0 && o.table != 1 {
		return fmt.Errorf("unknown table %d (have 1)", o.table)
	}
	wrongMode := map[string]bool{"risk-users": true, "risk-days": true}
	mode := "without -risk"
	if o.risk {
		wrongMode = map[string]bool{"users": true, "fig": true, "table": true, "costs": true,
			"analysis": true, "experiments": true, "all": true}
		mode = "with -risk"
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		if wrongMode[f.Name] && err == nil {
			err = fmt.Errorf("-%s has no effect %s", f.Name, mode)
		}
	})
	return err
}

// eventDump writes a bus subscription to a JSONL file.
type eventDump struct {
	path string
	sub  *eventstream.Subscription
	done chan error // the writer's verdict, once the subscription is drained
}

func startDump(bus *eventstream.Bus, path string) (*eventDump, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	d := &eventDump{path: path, sub: bus.Subscribe(1 << 16), done: make(chan error, 1)}
	go func() {
		w := bufio.NewWriterSize(f, 1<<20)
		enc := json.NewEncoder(w)
		for e := range d.sub.Events() {
			_ = enc.Encode(e) // a write error sticks in w; Flush reports it
		}
		err := w.Flush()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		d.done <- err
	}()
	return d, nil
}

// close drains the subscription and reports how many events it dropped.
func (d *eventDump) close() (dropped uint64, err error) {
	dropped = d.sub.Dropped()
	d.sub.Close()
	if err := <-d.done; err != nil {
		return dropped, fmt.Errorf("events-out: %w", err)
	}
	return dropped, nil
}

func run(args []string, stdout, stderr io.Writer) error {
	var o options
	fs := newFlags(&o)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := o.validate(fs); err != nil {
		return err
	}
	if o.fig == 0 && o.table == 0 && !o.costs && !o.analysis && !o.experiments {
		o.all = true
	}
	logf := func(format string, args ...any) {
		if !o.quiet {
			fmt.Fprintf(stderr, format+"\n", args...)
		}
	}

	// Streaming consumers: the live authwatch aggregator (cross-checked
	// against the simulator's reference aggregates after the run) and/or
	// a JSONL event dump. Neither changes the simulation's randomness or
	// its stdout report.
	var (
		bus   *eventstream.Bus
		watch *authwatch.Watcher
		dump  *eventDump
	)
	if o.authWatch || o.eventsOut != "" {
		bus = eventstream.NewBus(nil)
	}
	if o.authWatch {
		watch = authwatch.New(authwatch.Config{})
		// The watcher keeps pace easily (map updates vs live RADIUS round
		// trips), but a deep buffer makes drops structurally impossible on
		// a stalled scheduler too: parity demands every event.
		watch.Attach(bus, 1<<16)
		defer watch.Stop()
	}
	if o.eventsOut != "" {
		var err error
		if dump, err = startDump(bus, o.eventsOut); err != nil {
			return err
		}
	}

	// Both modes end the same way: drain the dump, cross-check the
	// watcher, then print the report — a mismatch still prints it, and
	// fails the run afterwards.
	start := time.Now()
	var (
		report   func()
		daily    *metrics.Daily
		smsTotal int
	)
	if o.risk {
		res, err := rollout.RunRiskEval(rollout.RiskEvalConfig{
			Users: o.riskUsers, Days: o.riskDays, Seed: o.seed, Events: bus, Logf: logf,
		})
		if err != nil {
			return err
		}
		daily, smsTotal = res.Metrics, res.SMSTotal
		report = func() { fmt.Fprintln(stdout, res.Report()) }
	} else {
		res, err := rollout.Run(rollout.Config{Users: o.users, Seed: o.seed, Events: bus, Logf: logf})
		if err != nil {
			return err
		}
		daily, smsTotal = res.Metrics, res.SMSMessages
		report = func() {
			logf("%s", res.ObservabilityReport())
			printRollout(stdout, &o, res)
		}
	}

	if dump != nil {
		dropped, err := dump.close()
		if err != nil {
			return err
		}
		logf("rollout: event stream written to %s (%d dropped)", dump.path, dropped)
	}
	var mismatch error
	if watch != nil {
		watch.Stop() // drains the subscription before we compare
		var summary string
		if summary, mismatch = rollout.CrossCheck(daily, smsTotal, watch); mismatch == nil {
			logf("%s", summary)
		}
	}
	logf("rollout: run finished in %s\n", time.Since(start).Round(time.Millisecond))
	report()
	return mismatch
}

// printRollout prints the selected figures and tables of a rollout run.
func printRollout(w io.Writer, o *options, res *rollout.Result) {
	figures := map[int]func() string{3: res.Figure3, 4: res.Figure4, 5: res.Figure5, 6: res.Figure6}
	if o.all {
		fmt.Fprintln(w, res.Summary())
		for n := 3; n <= 6; n++ {
			fmt.Fprintln(w, figures[n]())
		}
		fmt.Fprintln(w, res.Table1Report())
		fmt.Fprintln(w, res.CostReport())
		fmt.Fprintln(w, res.Analysis.Summary(15))
		return
	}
	if o.fig != 0 {
		fmt.Fprintln(w, figures[o.fig]())
	}
	if o.table == 1 {
		fmt.Fprintln(w, res.Table1Report())
	}
	if o.costs {
		fmt.Fprintln(w, res.CostReport())
	}
	if o.analysis {
		fmt.Fprintln(w, res.Analysis.Summary(15))
	}
	if o.experiments {
		fmt.Fprintln(w, res.ExperimentsMarkdown())
	}
}

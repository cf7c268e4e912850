// Command portald serves the user portal against an existing otpd admin
// API, with its own IDM store — the §3.5 front end as a standalone
// process.
//
// Example:
//
//	portald -http 127.0.0.1:8080 -otpd http://127.0.0.1:8443 \
//	        -otpd-user portal -otpd-pass secret -data /var/lib/portal
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"strings"

	"openmfa/internal/cryptoutil"
	"openmfa/internal/idm"
	"openmfa/internal/obs"
	"openmfa/internal/obs/slo"
	"openmfa/internal/ops"
	"openmfa/internal/otpd"
	"openmfa/internal/portal"
	"openmfa/internal/store"
)

var (
	httpAddr = flag.String("http", "127.0.0.1:8080", "portal listen address")
	otpdURL  = flag.String("otpd", "", "otpd admin API base URL (required)")
	otpdUser = flag.String("otpd-user", "portal", "digest username for the admin API")
	otpdPass = flag.String("otpd-pass", "", "digest password for the admin API (required)")
	dataDir  = flag.String("data", "", "IDM data directory (empty = in-memory)")
	baseURL  = flag.String("base-url", "", "public base URL for signed links (default http://<http>)")
	demo     = flag.Bool("demo", false, "create a demo account (demo/demo-pass)")

	opsFlags = ops.RegisterFlags(flag.CommandLine)
)

func main() { ops.Main("portald", run) }

// run serves until ctx is cancelled; the defers are the shutdown path.
func run(ctx context.Context) error {
	if *otpdURL == "" || *otpdPass == "" {
		return errors.New("-otpd and -otpd-pass are required")
	}

	reg := obs.NewRegistry()
	var db *store.Store
	var err error
	if *dataDir == "" {
		db = store.OpenMemory()
	} else if db, err = store.Open(*dataDir, store.Options{
		Sync: true, GroupCommit: true, Obs: reg,
	}); err != nil {
		return err
	}
	defer db.Close()

	// -slo objectives are availability over the per-route/per-status
	// request counters: any non-5xx answer is good service. FamilySource
	// follows series as routes are first hit, so nothing is pre-registered.
	kit, err := ops.Start(opsFlags, ops.Config{
		Reg: reg,
		SLI: slo.FamilySource{
			Reg: reg, Family: "portal_http_requests_total",
			Good: func(labels string) bool { return !strings.Contains(labels, `code="5`) },
		},
		StoreErr: db.Err,
	})
	if err != nil {
		return err
	}
	defer kit.Stop()

	users := idm.New(db, nil)
	if *demo {
		if _, err := users.Create("demo", "demo@hpc.example", "demo-pass", idm.ClassUser); err != nil {
			log.Printf("portald: demo account: %v", err)
		}
	}

	base := *baseURL
	if base == "" {
		base = "http://" + *httpAddr
	}
	// Pairing events (Figure 6) go on the kit's bus, so /debug/authwatch
	// shows enrolments as they happen.
	p, err := portal.New(portal.Config{
		IDM: users,
		Admin: &otpd.AdminClient{
			BaseURL: *otpdURL, Username: *otpdUser, Password: *otpdPass,
		},
		Email: portal.EmailFunc(func(to, subject, body string) error {
			log.Printf("portald: EMAIL to %s: %s\n%s", to, subject, body)
			return nil
		}),
		SessionKey: cryptoutil.RandomBytes(32),
		BaseURL:    base,
		Obs:        reg,
		Events:     kit.Bus,
	})
	if err != nil {
		return err
	}
	// The kit's endpoints sit in front of the application routes; its
	// /healthz (authwatch alerts + SLO fast burn) is the one served.
	mux := http.NewServeMux()
	kit.Mount(mux)
	mux.Handle("/", p.Handler())
	log.Printf("portald: serving on %s (otpd at %s; + /metrics, /healthz, /debug/{pprof,authwatch,slo,flightrec,prof})", *httpAddr, *otpdURL)
	return ops.Serve(ctx, *httpAddr, mux)
}

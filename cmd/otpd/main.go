// Command otpd runs the OTP validation platform (the LinOTP substitute):
// a RADIUS front end for login nodes plus the digest-authenticated admin
// REST API the portal drives.
//
// Example:
//
//	otpd -data /var/lib/otpd -radius 127.0.0.1:1812 -http 127.0.0.1:8443 \
//	     -key-hex $(openssl rand -hex 32) -admin-user portal -admin-pass secret
package main

import (
	"context"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"time"

	"openmfa/internal/eventstream"
	"openmfa/internal/geoip"
	"openmfa/internal/httpdigest"
	"openmfa/internal/obs"
	"openmfa/internal/ops"
	"openmfa/internal/otpd"
	"openmfa/internal/radius"
	"openmfa/internal/risk"
	"openmfa/internal/store"
	"openmfa/internal/store/repl"
)

var (
	dataDir    = flag.String("data", "", "data directory (empty = in-memory)")
	radiusAddr = flag.String("radius", "127.0.0.1:1812", "RADIUS listen address")
	httpAddr   = flag.String("http", "127.0.0.1:8443", "admin API listen address")
	secret     = flag.String("radius-secret", "testing123", "RADIUS shared secret")
	keyHex     = flag.String("key-hex", "", "hex AES key for secret storage, 32/48/64 hex chars (required)")
	adminUser  = flag.String("admin-user", "portal", "admin API digest username")
	adminPass  = flag.String("admin-pass", "", "admin API digest password (required)")
	issuer     = flag.String("issuer", "HPC", "otpauth issuer label")

	replListen  = flag.String("repl-listen", "", "replication leader listen address (empty = not a leader)")
	replFollow  = flag.String("repl-follow", "", "leader replication address to follow; makes this otpd a standby (no RADIUS listener, local writes refused)")
	replMinSync = flag.Int("repl-min-sync", 0, "follower acknowledgements required before a commit returns (0 = asynchronous)")
	replSyncTO  = flag.Duration("repl-sync-timeout", 2*time.Second, "bound on the -repl-min-sync wait; past it the write (and the login) fails closed")

	riskOn = flag.Bool("risk", false, "attach an advisory risk engine to the event bus: every login is scored (risk_* metrics) and the decision republished as a risk event")

	opsFlags = ops.RegisterFlags(flag.CommandLine)
)

func main() { ops.Main("otpd", run) }

// run serves until ctx is cancelled. Every resource is released by a
// defer, so a signal and a listener failure shut down the same way.
func run(ctx context.Context) error {
	if *adminPass == "" {
		return errors.New("-admin-pass required")
	}
	key, err := hex.DecodeString(*keyHex)
	if err != nil || (len(key) != 16 && len(key) != 24 && len(key) != 32) {
		return errors.New("-key-hex is required and must decode to 16, 24, or 32 bytes")
	}
	if *replListen != "" && *replFollow != "" {
		return errors.New("-repl-listen and -repl-follow are mutually exclusive")
	}

	reg := obs.NewRegistry()
	var db *store.Store
	if *dataDir == "" {
		db = store.OpenMemory()
	} else if db, err = store.Open(*dataDir, store.Options{
		Sync: true, GroupCommit: true, Obs: reg,
	}); err != nil {
		return err
	}
	defer db.Close()

	// A decision in any result class under an -slo spec's threshold is good
	// service (a fast fail-closed rejection meets the objective; a slow or
	// erroring check does not). RADIUS decisions complete a trace.
	var checks []*obs.Histogram
	for _, res := range []string{"ok", "invalid", "locked_out", "error"} {
		checks = append(checks, reg.Histogram("otpd_check_duration_seconds", nil, "result", res))
	}
	kit, err := ops.Start(opsFlags, ops.Config{
		Reg: reg, Latency: checks, StoreErr: db.Err,
		CompleteOn: []eventstream.Type{eventstream.TypeRadius},
	})
	if err != nil {
		return err
	}
	defer kit.Stop()

	// Replication endpoints. A leader bumps the store's fencing epoch and
	// streams committed WAL frames; a standby refuses local writes and
	// replays the leader's log. Promotion is a restart of the standby
	// with -repl-listen in place of -repl-follow.
	var leader *repl.Leader
	if *replListen != "" {
		leader, err = repl.StartLeader(db, repl.LeaderOptions{
			Addr:        *replListen,
			MinSync:     *replMinSync,
			SyncTimeout: *replSyncTO,
			Obs:         reg,
			Logger:      kit.Logger,
		})
		if err != nil {
			return fmt.Errorf("repl: %w", err)
		}
		defer leader.Close()
		log.Printf("otpd: replication leader on %s (epoch %d, min-sync %d)",
			leader.Addr(), db.Epoch(), *replMinSync)
	}
	if *replFollow != "" {
		follower, err := repl.StartFollower(db, repl.FollowerOptions{
			Addr:   *replFollow,
			Obs:    reg,
			Logger: kit.Logger,
		})
		if err != nil {
			return fmt.Errorf("repl: %w", err)
		}
		defer follower.Stop()
		log.Printf("otpd: standby following %s (local writes refused until promotion)", *replFollow)
	}

	// Advisory adaptive-MFA engine (DESIGN.md §14): scores every login
	// event against the account's streaming profile and republishes the
	// decision. The engine ignores its own risk events, so sharing the bus
	// does not loop; enforcement (the PAM risk gate) lives login-node side.
	if *riskOn {
		riskEng := risk.New(risk.Options{Geo: geoip.Synthetic(), Obs: reg, Events: kit.Bus})
		riskEng.Attach(kit.Bus, 1<<12)
		defer riskEng.Stop()
		log.Printf("otpd: advisory risk engine attached (risk_* metrics, decisions on the bus)")
	}

	srv, err := otpd.New(otpd.Config{
		DB: db, EncryptionKey: key, Issuer: *issuer,
		Obs: reg, Logger: kit.Logger,
		Spans: kit.Spans, Events: kit.Bus,
		CoalesceWrites: true,
	})
	if err != nil {
		return err
	}

	// A standby keeps the admin API and ops endpoints up for health
	// checks, but does not answer RADIUS: the login-node pool is pointed
	// at leaders only, and a standby's store would refuse the writes a
	// login needs anyway.
	if *replFollow == "" {
		rsrv := &radius.Server{
			Secret:  []byte(*secret),
			Handler: &otpd.RadiusHandler{OTP: srv},
			Obs:     reg,
			Logger:  kit.Logger,
			Events:  kit.Bus,
		}
		if err := rsrv.ListenAndServe(*radiusAddr); err != nil {
			return fmt.Errorf("radius: %w", err)
		}
		defer rsrv.Close()
		log.Printf("otpd: RADIUS on %s", rsrv.Addr())
	}

	api := &otpd.AdminAPI{
		OTP:   srv,
		Realm: "otpd-admin",
		Creds: httpdigest.StaticCredentials{
			*adminUser: httpdigest.HA1(*adminUser, "otpd-admin", *adminPass),
		},
	}
	// The ops endpoints ride on the admin listener, next to the
	// digest-authenticated admin routes.
	mux := http.NewServeMux()
	kit.Mount(mux)
	leader.Mount(mux)
	mux.Handle("/", api.Handler())
	log.Printf("otpd: admin API on %s (+ /metrics, /healthz, /debug/{pprof,authwatch,slo,flightrec,prof,repl})", *httpAddr)
	return ops.Serve(ctx, *httpAddr, mux)
}

// Command radiusd runs a standalone RADIUS proxy, the middle tier of the
// paper's §3.2 architecture: login nodes talk to a handful of proxies
// which chain to the server in front of the OTP database.
//
// Example:
//
//	radiusd -listen 127.0.0.1:1812 -secret nas-secret \
//	        -upstream 127.0.0.1:1813 -upstream-secret otpd-secret
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"time"

	"openmfa/internal/eventstream"
	"openmfa/internal/faultnet"
	"openmfa/internal/obs"
	"openmfa/internal/ops"
	"openmfa/internal/radius"
)

var (
	listen         = flag.String("listen", "127.0.0.1:1812", "listen address")
	secret         = flag.String("secret", "", "shared secret with downstream NAS (required)")
	upstream       = flag.String("upstream", "", "upstream RADIUS server address (required)")
	upstreamSecret = flag.String("upstream-secret", "", "shared secret with upstream (required)")
	timeout        = flag.Duration("timeout", 2*time.Second, "upstream per-attempt timeout")
	obsAddr        = flag.String("obs-addr", "", "ops HTTP listen address (/metrics, /healthz, /debug/...); empty = disabled")

	// Fault injection (staging/chaos drills only): interposes the
	// faultnet layer on both the NAS-facing socket and the upstream
	// client so a single proxy can rehearse a degraded network.
	faultSeed    = flag.Int64("fault-seed", 1, "fault injection RNG seed")
	faultDrop    = flag.Float64("fault-drop", 0, "probability each datagram is silently dropped")
	faultDup     = flag.Float64("fault-dup", 0, "probability each datagram is sent twice")
	faultCorrupt = flag.Float64("fault-corrupt", 0, "probability one byte of each datagram is flipped")
	faultDelay   = flag.Duration("fault-delay", 0, "base injected latency per send")
	faultJitter  = flag.Duration("fault-jitter", 0, "uniform extra injected latency per send")

	opsFlags = ops.RegisterFlags(flag.CommandLine)
)

func main() { ops.Main("radiusd", run) }

// run serves until ctx is cancelled; the defers are the shutdown path.
func run(ctx context.Context) error {
	if *secret == "" || *upstream == "" || *upstreamSecret == "" {
		return errors.New("-secret, -upstream and -upstream-secret are required")
	}
	// Any proxied decision (accept or fast fail-closed reject) under an
	// -slo spec's threshold is good service.
	reg := obs.NewRegistry()
	kit, err := ops.Start(opsFlags, ops.Config{
		Reg:        reg,
		Latency:    []*obs.Histogram{reg.Histogram("radius_request_duration_seconds", nil)},
		CompleteOn: []eventstream.Type{eventstream.TypeRadius},
	})
	if err != nil {
		return err
	}
	defer kit.Stop()

	// Obs on the client counts radius_client_discards_total{reason}: the
	// RFC 2865 §3 silent discards of forged or corrupt upstream replies.
	upstreamClient := &radius.Client{
		Addr: *upstream, Secret: []byte(*upstreamSecret), Timeout: *timeout, Obs: reg,
	}
	srv := &radius.Server{
		Secret:  []byte(*secret),
		Handler: &radius.Proxy{Upstream: upstreamClient},
		Logf:    log.Printf,
		Obs:     reg,
		Logger:  kit.Logger,
		Events:  kit.Bus,
	}
	if *faultDrop > 0 || *faultDup > 0 || *faultCorrupt > 0 || *faultDelay > 0 || *faultJitter > 0 {
		fn := faultnet.New(faultnet.Config{
			Seed:        *faultSeed,
			Obs:         reg,
			DropRate:    *faultDrop,
			DupRate:     *faultDup,
			CorruptRate: *faultCorrupt,
			Delay:       *faultDelay,
			Jitter:      *faultJitter,
		})
		srv.ListenPacket = fn.ListenPacket
		upstreamClient.Dial = fn.Dial
		log.Printf("radiusd: FAULT INJECTION ACTIVE (seed=%d drop=%.2f dup=%.2f corrupt=%.2f delay=%s jitter=%s)",
			*faultSeed, *faultDrop, *faultDup, *faultCorrupt, *faultDelay, *faultJitter)
	}
	if err := srv.ListenAndServe(*listen); err != nil {
		return err
	}
	defer srv.Close()
	log.Printf("radiusd: proxying %s -> %s", srv.Addr(), *upstream)

	mux := http.NewServeMux()
	kit.Mount(mux)
	if *obsAddr != "" {
		log.Printf("radiusd: ops endpoints on %s (/metrics, /healthz, /debug/{pprof,authwatch,slo,flightrec,prof})", *obsAddr)
	}
	return ops.Serve(ctx, *obsAddr, mux)
}

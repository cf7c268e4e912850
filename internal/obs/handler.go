package obs

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

// processStart anchors the /healthz uptime report and the
// process_start_time_seconds convention gauge.
var processStart = time.Now()

// ConventionFamilies lists the metric families every exposition mounted
// through this package is expected to carry; metrics-lint gates on them
// via LintExposition's required argument.
func ConventionFamilies() []string {
	return []string{"process_start_time_seconds", "build_info"}
}

// registerConventions populates the Prometheus convention families:
// process_start_time_seconds lets scrapers detect restarts and compute
// counter resets, build_info is the standard constant-1 gauge carrying
// version identity in labels.
func registerConventions(reg *Registry) {
	reg.Gauge("process_start_time_seconds").Set(float64(processStart.UnixNano()) / 1e9)
	version := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		version = bi.Main.Version
	}
	reg.Gauge("build_info", "goversion", runtime.Version(), "version", version).Set(1)
}

// HealthCheck reports a degraded condition: nil means healthy, an error
// both flips /healthz to 503 and names the condition in its body.
type HealthCheck func() error

// Mount registers the operational endpoints on mux:
//
//	GET /metrics        Prometheus text exposition of reg
//	GET /healthz        liveness: "ok" plus uptime, or 503 "degraded"
//	                    listing each distinct failing HealthCheck message once
//	    /debug/pprof/*  the standard net/http/pprof profiles
//
// Servers that already own a mux (the otpd admin API, the portal) mount
// these alongside their application routes; standalone daemons serve
// Handler on a dedicated -obs-addr listener.
func Mount(mux *http.ServeMux, reg *Registry, checks ...HealthCheck) {
	registerConventions(reg)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		// A check may fold another in (authwatch's health includes the SLO
		// engine's), so one cause can fail two checks: list it once.
		var failing []string
		for _, c := range checks {
			if c == nil {
				continue
			}
			if err := c(); err != nil && !slices.Contains(failing, err.Error()) {
				failing = append(failing, err.Error())
			}
		}
		if len(failing) > 0 {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, "degraded uptime=%s\n", time.Since(processStart).Round(time.Second))
			for _, msg := range failing {
				fmt.Fprintf(w, "check: %s\n", msg)
			}
			return
		}
		fmt.Fprintf(w, "ok uptime=%s\n", time.Since(processStart).Round(time.Second))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Handler returns a standalone handler serving the Mount endpoints.
func Handler(reg *Registry, checks ...HealthCheck) http.Handler {
	mux := http.NewServeMux()
	Mount(mux, reg, checks...)
	return mux
}

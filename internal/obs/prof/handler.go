package prof

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
)

// Mount registers the incident endpoints:
//
//	GET  /debug/prof                                  sampler status + incident index (JSON)
//	GET  /debug/prof?incident=<id>                    one full bundle (JSON; profiles base64)
//	GET  /debug/prof?incident=<id>&profile=cpu        raw pprof protobuf from the bundle's
//	                                                  newest capture (open with go tool pprof)
//	GET  /debug/prof?incident=<id>&profile=heap&capture=0   ...from a specific ring slot
//	GET  /debug/prof?incident=<id>&part=goroutines    the goroutine dump (text)
//	GET  /debug/prof?incident=<id>&part=metrics       the metrics snapshot (text)
//	POST /debug/prof/capture?reason=...               fire a manual incident now
//
// Nil-safe: mounting a nil engine registers nothing.
func (e *Engine) Mount(mux *http.ServeMux) {
	if e == nil {
		return
	}
	mux.HandleFunc("/debug/prof", e.handleIndex)
	mux.HandleFunc("/debug/prof/capture", e.handleCapture)
}

// statusJSON is the sampler half of the index response.
type statusJSON struct {
	Dir          string `json:"dir,omitempty"`
	Period       string `json:"period"`
	CPUDuration  string `json:"cpu_duration"`
	Retention    int    `json:"retention"`
	RingCaptures int    `json:"ring_captures"`
	Debounce     string `json:"debounce"`
	Captures     int64  `json:"captures_total"`
	CaptureErrs  int64  `json:"capture_errors_total"`
	Incidents    int    `json:"incidents"`
	Suppressed   int64  `json:"incidents_suppressed_total"`
}

func (e *Engine) handleIndex(w http.ResponseWriter, req *http.Request) {
	qp := req.URL.Query()
	id := qp.Get("incident")
	if id == "" {
		e.mu.Lock()
		ring := len(e.ring)
		incidents := e.incidents.Len()
		e.mu.Unlock()
		writeJSON(w, struct {
			Sampler   statusJSON `json:"sampler"`
			Incidents []Summary  `json:"incidents"`
		}{
			Sampler: statusJSON{
				Dir:          e.cfg.Dir,
				Period:       e.cfg.Period.String(),
				CPUDuration:  e.cpuDur.String(),
				Retention:    e.cfg.Retention,
				RingCaptures: ring,
				Debounce:     e.cfg.Debounce.String(),
				Captures:     e.captures.Value(),
				CaptureErrs:  e.capErrs.Value(),
				Incidents:    incidents,
				Suppressed:   e.suppressed.Value(),
			},
			Incidents: e.List(),
		})
		return
	}
	inc, err := e.Get(id)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if inc == nil {
		http.Error(w, "prof: no incident "+id, http.StatusNotFound)
		return
	}
	if kind := qp.Get("profile"); kind != "" {
		e.serveProfile(w, qp.Get("capture"), inc, kind)
		return
	}
	switch part := qp.Get("part"); part {
	case "":
		writeJSON(w, inc)
	case "goroutines":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, inc.Goroutines)
	case "metrics":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, inc.Metrics)
	default:
		http.Error(w, "prof: unknown part "+part, http.StatusBadRequest)
	}
}

// serveProfile streams one raw pprof profile out of a bundle. The
// newest capture (the one taken at fire time) is the default.
func (e *Engine) serveProfile(w http.ResponseWriter, captureParam string, inc *Incident, kind string) {
	if len(inc.Captures) == 0 {
		http.Error(w, "prof: incident has no captures", http.StatusNotFound)
		return
	}
	idx := len(inc.Captures) - 1
	if captureParam != "" {
		n, err := strconv.Atoi(captureParam)
		if err != nil || n < 0 || n >= len(inc.Captures) {
			http.Error(w, "prof: bad capture index", http.StatusBadRequest)
			return
		}
		idx = n
	}
	data := inc.Captures[idx].Profiles[kind]
	if len(data) == 0 {
		http.Error(w, fmt.Sprintf("prof: capture %d has no %s profile", idx, kind), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%s-%s-%d.pb.gz", inc.ID, kind, idx))
	w.Write(data)
}

func (e *Engine) handleCapture(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet && req.Method != http.MethodPost {
		http.Error(w, "prof: GET or POST", http.StatusMethodNotAllowed)
		return
	}
	detail := req.URL.Query().Get("reason")
	if detail == "" {
		detail = "manual capture"
	}
	inc, err := e.Fire("manual", detail)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, summarize(inc, 0))
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// Span layers. A login driven at one level is a root span; below PAM the
// root is the harness's own bracket and its children are the calls into the
// layer, so the layer's time for that login is the sum of the children.
const (
	layerSSHD        = "sshd.login"
	layerPAM         = "pam.auth"
	layerRADIUSLogin = "harness.radius_login"
	layerRADIUS      = "radius.exchange"
	layerOTPDLogin   = "harness.otpd_login"
	layerOTPD        = "otpd.check"
	layerOTPDFail    = "otpd.check_fail"
	layerSMSTrigger  = "sms.trigger"
	layerAuthlog     = "authlog.scan"
	layerIDM         = "idm.auth"
	layerACL         = "accessctl.check"
	layerValidate    = "otp.validate"
	layerValidateBad = "otp.validate_miss"
	layerStore       = "store.apply"
)

const noParent int32 = -1

// span is one timed call the harness made. Start and End are nanoseconds
// since the tracer was created; Parent indexes the tracer's span list.
type span struct {
	Layer  string `json:"layer"`
	Login  int32  `json:"login"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) us() float64 { return float64(s.End-s.Start) / 1e3 }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced runs call the same code. It is used
// from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) begin(layer string, login, parent int32) int32 {
	if t == nil {
		return noParent
	}
	t.spans = append(t.spans, span{Layer: layer, Login: login, Parent: parent})
	i := int32(len(t.spans) - 1)
	t.spans[i].Start = int64(time.Since(t.t0))
	return i
}

func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.t0))
}

// durations groups span times in µs by layer, in recording order. A root
// bracket the harness put around several calls (harness.*) is replaced by
// the sum of its children: the time that login spent inside the layer.
func (t *tracer) durations() map[string][]float64 {
	childSum := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != noParent {
			childSum[s.Parent] += s.us()
		}
	}
	out := make(map[string][]float64)
	for i, s := range t.spans {
		switch s.Layer {
		case layerRADIUSLogin, layerOTPDLogin:
			out[s.Layer] = append(out[s.Layer], childSum[i])
		default:
			out[s.Layer] = append(out[s.Layer], s.us())
		}
	}
	return out
}

// writeTo dumps the spans as JSON lines.
func (t *tracer) writeTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerBudget is the peeled table: each layer's time per median login and
// what is left after subtracting the layers it calls.
//
//	sshd ⊃ pam ⊃ { authlog, idm, accessctl, radius ⊃ otpd ⊃ { otp, store } }
//
// The selfs telescope, so they sum to the sshd-level median exactly.
type layerBudget struct {
	sshd, pam, radius, otpd                float64
	authlog, idm, acl, validate, store     float64
	sshdSelf, pamSelf, radiusSelf, otpSelf float64
}

func newLayerBudget(d map[string][]float64) layerBudget {
	b := layerBudget{
		sshd: median(d[layerSSHD]), pam: median(d[layerPAM]),
		radius: median(d[layerRADIUSLogin]), otpd: median(d[layerOTPDLogin]),
		authlog: median(d[layerAuthlog]), idm: median(d[layerIDM]), acl: median(d[layerACL]),
		validate: median(d[layerValidate]), store: median(d[layerStore]),
	}
	b.sshdSelf = b.sshd - b.pam
	b.pamSelf = b.pam - (b.authlog + b.idm + b.acl + b.radius)
	b.radiusSelf = b.radius - b.otpd
	b.otpSelf = b.otpd - (b.validate + b.store)
	return b
}

// sum adds every self time and leaf; it equals b.sshd up to rounding.
func (b layerBudget) sum() float64 {
	return b.sshdSelf + b.pamSelf + b.radiusSelf + b.otpSelf +
		b.authlog + b.idm + b.acl + b.validate + b.store
}

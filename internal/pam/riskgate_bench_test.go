package pam

import (
	"testing"

	"openmfa/internal/geoip"
	"openmfa/internal/risk"
)

// BenchmarkRiskGatedLogin compares the Figure 1 password+exemption hot
// path with and without the risk gate (the enforced comparison lives in
// TestRiskGateOverheadGate).
func BenchmarkRiskGatedLogin(b *testing.B) {
	h := newHarness(b, "permit : bench : ALL : ALL")
	h.addUser(b, "bench", "pw")
	cfg := h.stackConfig(nil)
	engine := risk.New(risk.Options{Geo: geoip.Synthetic()})
	seedHistory(engine, "bench", h.sim.Now())
	run := func(b *testing.B, stack *Stack) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctx := &Context{User: "bench", RemoteAddr: austinIP, Service: "sshd",
				Conv: &conv{answers: []any{"pw"}}, Now: h.sim.Now}
			if err := stack.Authenticate(ctx); err != nil {
				b.Fatalf("login: %v", err)
			}
		}
	}
	b.Run("gate-off", func(b *testing.B) { run(b, NewSSHDStack(cfg)) })
	cfg.Risk = engine
	b.Run("gate-on", func(b *testing.B) { run(b, NewSSHDStack(cfg)) })
}

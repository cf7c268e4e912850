package risk

import (
	"net"
	"testing"
	"time"

	"openmfa/internal/geoip"
)

// BenchmarkDecideHot is the PAM gate's per-attempt cost for an
// established account from a familiar origin — the path every login pays
// when the gate is wired. It must stay allocation-free: the ≤5% budget in
// TestRiskGateOverheadGate (internal/pam) depends on it.
func BenchmarkDecideHot(b *testing.B) {
	e := New(Options{Geo: geoip.Synthetic()})
	ip := net.ParseIP("129.114.3.7")
	t0 := time.Date(2026, 1, 1, 10, 0, 0, 0, time.UTC)
	for i := 0; i < 30; i++ {
		e.RecordSuccess("bench", ip, t0.AddDate(0, 0, i))
	}
	at := t0.AddDate(0, 0, 31)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Decide("bench", ip, at)
	}
}

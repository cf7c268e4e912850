// Micro-benchmarks: one per paper table/figure plus ablations of the
// design choices DESIGN.md calls out. The figure benchmarks run the
// rollout simulator at a reduced scale and report the figure's headline
// quantities as custom metrics; run cmd/rollout for the full-scale
// reproduction with charts. None of these measures a login: the login
// benchmark of record is bench/ (BENCHMARK.json).
package openmfa_test

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"openmfa/internal/clock"
	"openmfa/internal/core"
	"openmfa/internal/cryptoutil"
	"openmfa/internal/idm"
	"openmfa/internal/otp"
	"openmfa/internal/otpd"
	"openmfa/internal/pam"
	"openmfa/internal/radius"
	"openmfa/internal/rollout"
	"openmfa/internal/sshd"
	"openmfa/internal/store"
)

// benchRollout runs one reduced-scale simulation per iteration.
func benchRollout(b *testing.B, end time.Time) *rollout.Result {
	b.Helper()
	var res *rollout.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = rollout.Run(rollout.Config{Users: 120, Seed: 7, End: end})
		if err != nil {
			b.Fatal(err)
		}
	}
	return res
}

var end2016 = time.Date(2016, 12, 31, 0, 0, 0, 0, time.UTC)

func day(s string) time.Time {
	t, _ := time.Parse("2006-01-02", s)
	return t
}

// BenchmarkFig3UniqueMFAUsers regenerates Figure 3 and reports the
// phase-2 adoption jump.
func BenchmarkFig3UniqueMFAUsers(b *testing.B) {
	res := benchRollout(b, end2016)
	m := res.Metrics
	pre, post := 0.0, 0.0
	for dIdx := 0; dIdx < 5; dIdx++ {
		pre += m.Get(day("2016-08-29").AddDate(0, 0, dIdx), rollout.SeriesUniqueMFAUsers)
		post += m.Get(day("2016-09-07").AddDate(0, 0, dIdx), rollout.SeriesUniqueMFAUsers)
	}
	if pre > 0 {
		b.ReportMetric(post/pre, "phase2-jump-x")
	}
	peak, _ := m.Max(rollout.SeriesUniqueMFAUsers)
	b.ReportMetric(peak, "peak-users/day")
}

// BenchmarkFig4TrafficMix regenerates Figure 4 and reports the drop in
// external non-MFA traffic across the phase-2 boundary.
func BenchmarkFig4TrafficMix(b *testing.B) {
	res := benchRollout(b, end2016)
	m := res.Metrics
	nonMFA := func(from, to string) float64 {
		return m.SumRange(rollout.SeriesTrafficExternal, day(from), day(to)) -
			m.SumRange(rollout.SeriesTrafficExtMFA, day(from), day(to))
	}
	before := nonMFA("2016-08-22", "2016-09-05") / 15
	after := nonMFA("2016-09-07", "2016-09-21") / 15
	if before > 0 {
		b.ReportMetric(after/before, "ext-nonmfa-ratio")
	}
	b.ReportMetric(float64(res.TotalLogins), "logins")
}

// BenchmarkFig5Tickets regenerates Figure 5 and reports both MFA ticket
// shares (paper: 6.7% and 2.7%).
func BenchmarkFig5Tickets(b *testing.B) {
	res := benchRollout(b, time.Date(2017, 3, 31, 0, 0, 0, 0, time.UTC))
	tr, st := res.TicketShares()
	b.ReportMetric(tr, "share-augdec-%")
	b.ReportMetric(st, "share-janmar-%")
}

// BenchmarkFig6NewPairings regenerates Figure 6 and reports the spike
// ranks (paper: 09-07 first, 10-04 fourth).
func BenchmarkFig6NewPairings(b *testing.B) {
	res := benchRollout(b, end2016)
	m := res.Metrics
	b.ReportMetric(float64(m.Rank(rollout.SeriesPairingsNew, day("2016-09-07"))), "rank-0907")
	b.ReportMetric(float64(m.Rank(rollout.SeriesPairingsNew, day("2016-10-04"))), "rank-1004")
}

// BenchmarkTable1PairingBreakdown regenerates Table 1 and reports the
// four percentages (paper: 55.38 / 40.22 / 2.97 / 1.43).
func BenchmarkTable1PairingBreakdown(b *testing.B) {
	res := benchRollout(b, end2016)
	b.ReportMetric(res.Table1.Percent("soft"), "soft-%")
	b.ReportMetric(res.Table1.Percent("sms"), "sms-%")
	b.ReportMetric(res.Table1.Percent("training"), "training-%")
	b.ReportMetric(res.Table1.Percent("hard"), "hard-%")
}

// --- shared deployment for the enforcement-mode ablation ---

var (
	infraOnce sync.Once
	infra     *core.Infrastructure
	infraSim  *clock.Sim
)

func sharedInfra(b *testing.B) (*core.Infrastructure, *clock.Sim) {
	b.Helper()
	infraOnce.Do(func() {
		infraSim = clock.NewSim(time.Date(2016, 10, 10, 8, 0, 0, 0, time.UTC))
		var err error
		if infra, err = core.New(core.Options{Clock: infraSim}); err != nil {
			panic(err)
		}
	})
	return infra, infraSim
}

// --- hot-path concurrency ---

// BenchmarkValidateParallel measures multi-user OTP validation through one
// shared Server with per-user lock striping. Each goroutine owns a
// distinct user and validates fresh, correct codes. Run with -cpu 1,2,4,8:
// throughput must scale with GOMAXPROCS because distinct users no longer
// serialise behind a process-wide mutex.
func BenchmarkValidateParallel(b *testing.B) {
	sim := clock.NewSim(time.Date(2016, 10, 10, 8, 0, 0, 0, time.UTC))
	opts := otp.DefaultTOTPOptions()
	// Wide skew so a code computed just before other goroutines advance
	// the shared simulated clock still validates (advances are 31 s each;
	// the centre-first spiral keeps the common case at one HMAC).
	opts.Skew = 2 * time.Hour
	srv, err := otpd.New(otpd.Config{
		DB:            store.OpenMemory(),
		EncryptionKey: cryptoutil.RandomBytes(32),
		Clock:         sim,
		OTP:           opts,
		// Six-digit codes collide within the wide window with
		// probability ~1e-6 per candidate counter; over millions of
		// iterations a few spurious rejections are expected and must
		// not deactivate a bench user.
		LockoutThreshold: 1 << 30,
	})
	if err != nil {
		b.Fatal(err)
	}
	const users = 128
	secrets := make([][]byte, users)
	for i := 0; i < users; i++ {
		enr, err := srv.InitSoftToken(fmt.Sprintf("bench-user-%03d", i))
		if err != nil {
			b.Fatal(err)
		}
		secrets[i] = enr.Secret
	}
	var next, fails int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(atomic.AddInt64(&next, 1)-1) % users
		user := fmt.Sprintf("bench-user-%03d", i)
		for pb.Next() {
			// A fresh step per iteration: the replay high-water mark
			// advances monotonically, so every code is accepted once.
			sim.Advance(31 * time.Second)
			code, err := otp.TOTP(secrets[i], sim.Now(), srv.OTPOptions())
			if err != nil {
				b.Fatal(err)
			}
			res, err := srv.Check(user, code)
			if err != nil {
				b.Fatal(err)
			}
			if !res.OK {
				atomic.AddInt64(&fails, 1)
			}
		}
	})
	b.StopTimer()
	// Code collisions inside the skew window can spuriously reject a
	// fresh code (the matched counter lands at or below the replay mark).
	// That is probability noise, not a concurrency defect — but anything
	// beyond noise means validations are corrupting each other's state.
	ratio := float64(atomic.LoadInt64(&fails)) / float64(b.N)
	b.ReportMetric(ratio, "fail-ratio")
	if ratio > 0.01 {
		b.Fatalf("%.2f%% of validations failed", 100*ratio)
	}
}

// BenchmarkRadiusRetransmitStorm measures the dedup fast path under a
// retransmit storm: each iteration sends one unique Access-Request plus 7
// identical retransmissions and waits for all replies. The handler must
// run exactly once per iteration (reported as handler-calls/op).
func BenchmarkRadiusRetransmitStorm(b *testing.B) {
	secret := []byte("storm-bench-secret")
	var handled int64
	srv := &radius.Server{
		Secret: secret,
		Handler: radius.HandlerFunc(func(*radius.Request) *radius.Packet {
			atomic.AddInt64(&handled, 1)
			return &radius.Packet{Code: radius.AccessAccept}
		}),
	}
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("udp", srv.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, radius.MaxPacketLen)
	const copies = 8
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := radius.NewRequest(byte(i)) // fresh authenticator => fresh dedup key
		req.AddString(radius.AttrUserName, "storm")
		if err := radius.AddMessageAuthenticator(req, secret); err != nil {
			b.Fatal(err)
		}
		wire, err := req.Encode()
		if err != nil {
			b.Fatal(err)
		}
		for c := 0; c < copies; c++ {
			if _, err := conn.Write(wire); err != nil {
				b.Fatal(err)
			}
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		for c := 0; c < copies; c++ {
			if _, err := conn.Read(buf); err != nil {
				b.Fatalf("reply %d/%d: %v", c, copies, err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(atomic.LoadInt64(&handled))/float64(b.N), "handler-calls/op")
}

// --- ablations ---

// BenchmarkAblationDriftWindow sweeps the §3.3 ±300 s drift tolerance:
// wider windows cost more HMAC evaluations on worst-case validation.
func BenchmarkAblationDriftWindow(b *testing.B) {
	secret := []byte("12345678901234567890")
	now := time.Unix(1475000000, 0)
	for _, skew := range []time.Duration{0, 30 * time.Second, 300 * time.Second, 900 * time.Second} {
		b.Run(skew.String(), func(b *testing.B) {
			o := otp.DefaultTOTPOptions()
			o.Skew = skew
			code, _ := otp.TOTP(secret, now.Add(-skew), o) // worst case: max drift
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := otp.ValidateTOTP(secret, code, now, o); !ok {
					b.Fatal("rejected")
				}
			}
		})
	}
}

// BenchmarkAblationRadiusFarmSize compares validation latency through
// farms of different sizes under a healthy network (round-robin cost) —
// the §3.2 "scalable number of back end components".
func BenchmarkAblationRadiusFarmSize(b *testing.B) {
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("%d-servers", n), func(b *testing.B) {
			sim := clock.NewSim(time.Date(2016, 10, 10, 8, 0, 0, 0, time.UTC))
			db := store.OpenMemory()
			srv, err := otpd.New(otpd.Config{DB: db,
				EncryptionKey: cryptoutil.RandomBytes(32), Clock: sim})
			if err != nil {
				b.Fatal(err)
			}
			enr, _ := srv.InitSoftToken("u")
			secret := []byte("bench-secret")
			var addrs []string
			for i := 0; i < n; i++ {
				rs := &radius.Server{Secret: secret, Handler: &otpd.RadiusHandler{OTP: srv}}
				if err := rs.ListenAndServe("127.0.0.1:0"); err != nil {
					b.Fatal(err)
				}
				defer rs.Close()
				addrs = append(addrs, rs.Addr().String())
			}
			pool := radius.NewPool(addrs, secret, 2*time.Second, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.Advance(31 * time.Second)
				code, _ := otp.TOTP(enr.Secret, sim.Now(), srv.OTPOptions())
				resp, err := pool.Exchange(func(req *radius.Packet) {
					req.AddString(radius.AttrUserName, "u")
					hidden, _ := radius.HidePassword(code, secret, req.Authenticator)
					req.Add(radius.AttrUserPassword, hidden)
				})
				if err != nil || resp.Code != radius.AccessAccept {
					b.Fatalf("exchange: %v %v", resp, err)
				}
			}
		})
	}
}

// BenchmarkAblationProxyChain measures the latency cost of the §3.2 proxy
// chaining (0, 1, and 2 proxy hops in front of the terminal server).
func BenchmarkAblationProxyChain(b *testing.B) {
	for _, hops := range []int{0, 1, 2} {
		b.Run(fmt.Sprintf("%d-hops", hops), func(b *testing.B) {
			secret := []byte("hop-secret")
			terminal := &radius.Server{Secret: secret,
				Handler: radius.HandlerFunc(func(*radius.Request) *radius.Packet {
					return &radius.Packet{Code: radius.AccessAccept}
				})}
			if err := terminal.ListenAndServe("127.0.0.1:0"); err != nil {
				b.Fatal(err)
			}
			defer terminal.Close()
			addr := terminal.Addr().String()
			for i := 0; i < hops; i++ {
				proxy := &radius.Server{Secret: secret,
					Handler: &radius.Proxy{Upstream: &radius.Client{
						Addr: addr, Secret: secret, Timeout: 2 * time.Second}}}
				if err := proxy.ListenAndServe("127.0.0.1:0"); err != nil {
					b.Fatal(err)
				}
				defer proxy.Close()
				addr = proxy.Addr().String()
			}
			c := &radius.Client{Addr: addr, Secret: secret, Timeout: 2 * time.Second}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := radius.NewRequest(0)
				req.AddString(radius.AttrUserName, "u")
				if _, err := c.Exchange(req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationLockoutThreshold sweeps the §3.1 failure threshold:
// the cost of a failure storm up to deactivation.
func BenchmarkAblationLockoutThreshold(b *testing.B) {
	for _, threshold := range []int{5, 20, 100} {
		b.Run(fmt.Sprintf("threshold-%d", threshold), func(b *testing.B) {
			sim := clock.NewSim(time.Unix(1475000000, 0))
			srv, err := otpd.New(otpd.Config{
				DB:            store.OpenMemory(),
				EncryptionKey: cryptoutil.RandomBytes(32),
				Clock:         sim, LockoutThreshold: threshold,
			})
			if err != nil {
				b.Fatal(err)
			}
			srv.InitSoftToken("victim")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < threshold; j++ {
					srv.Check("victim", "000000")
				}
				b.StopTimer()
				srv.ResetFailures("victim")
				b.StartTimer()
			}
		})
	}
}

// BenchmarkAblationEnforcementModes compares the per-login PAM cost of
// the four tiers for an unpaired user (off/paired/countdown skip RADIUS).
func BenchmarkAblationEnforcementModes(b *testing.B) {
	inf, sim := sharedInfra(b)
	inf.CreateUser("unpaired", "u@x", "pw", idm.ClassUser)
	for _, mode := range []pam.Mode{pam.ModeOff, pam.ModePaired, pam.ModeCountdown} {
		b.Run(string(mode), func(b *testing.B) {
			inf.Mode.Set(pam.TokenConfig{
				Mode:     mode,
				Deadline: sim.Now().AddDate(0, 1, 0),
				InfoURL:  "https://portal/mfa",
			})
			r := &sshd.FuncResponder{}
			r.Fn = func(echo bool, prompt string) (string, error) {
				if strings.Contains(prompt, "Password") {
					return "pw", nil
				}
				return "", nil // acknowledgement
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := sshd.Dial(inf.SSHAddr(), sshd.DialOptions{User: "unpaired", TTY: true, Responder: r})
				if err != nil {
					b.Fatal(err)
				}
				c.Close()
			}
		})
	}
	inf.Mode.SetMode(pam.ModeFull) // restore for other benches
}

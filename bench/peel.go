package main

import (
	"fmt"
	"net"
	"runtime/metrics"
	"time"

	"openmfa/internal/otp"
	"openmfa/internal/store"
)

// peelResult is the traced run: the spans, plus the counts taken at the
// same boundaries.
type peelResult struct {
	tr       *tracer
	logins   int
	failed   int
	firstErr error
	// allocs is heap objects allocated per call, by root layer, with the
	// server side's share included (one client, nothing else running).
	allocs map[string]float64
	// Read from the program's own counters over the logins (probes
	// excluded): fsyncs, and RADIUS requests the farm saw more than once.
	fsyncs, retransmits int64
}

// allocCounter reads the process's cumulative heap-object count without
// stopping the world, so it can bracket single calls.
type allocCounter struct{ s [1]metrics.Sample }

func newAllocCounter() *allocCounter {
	a := &allocCounter{}
	a.s[0].Name = "/gc/heap/allocs:objects"
	return a
}

func (a *allocCounter) read() uint64 {
	metrics.Read(a.s[:])
	return a.s[0].Value.Uint64()
}

// netYield lets a goroutine step aside until the network poller has run and
// every goroutine it found ready has had its turn. runtime.Gosched does not
// do that: a goroutine that only yields stays runnable, the scheduler looks
// at the network only when nothing is, and on one scheduler thread the
// server whose socket is ready would wait for the monitor's 10 ms sweep. A
// timer sleep does, but idles the process for a millisecond and the next
// login then runs cold. So the caller sends itself a datagram and blocks
// until the helper that reads it says so: the poller finds the helper's
// socket ready together with everyone else's.
type netYield struct {
	rx, tx *net.UDPConn
	woke   chan struct{}
}

func newNetYield() (*netYield, error) {
	rx, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	tx, err := net.DialUDP("udp4", nil, rx.LocalAddr().(*net.UDPAddr))
	if err != nil {
		rx.Close()
		return nil, err
	}
	y := &netYield{rx: rx, tx: tx, woke: make(chan struct{})}
	go func() {
		defer close(y.woke)
		var b [1]byte
		for {
			if _, err := rx.Read(b[:]); err != nil {
				return
			}
			y.woke <- struct{}{}
		}
	}()
	return y, nil
}

func (y *netYield) yield() {
	if _, err := y.tx.Write([]byte{0}); err == nil {
		<-y.woke
	}
}

func (y *netYield) close() {
	y.tx.Close()
	y.rx.Close()
	<-y.woke
}

// peelEvery and probeEvery set how the traced run spends its logins: of
// every peelEvery, one each goes to the PAM, RADIUS and otpd entry points
// and the rest through sshd, so the live state (authlog window, caches)
// stays close to an untraced run's; every probeEvery-th login is followed
// by the leaf probes.
const (
	peelEvery  = 32
	probeEvery = 8
)

// runPeel replays the deployment's traffic with one client for dur, driving
// the same scripted logins at successively deeper public entry points and
// timing leaf calls directly, with a span around every call it makes.
func (d *deployment) runPeel(dur time.Duration) peelResult {
	res := peelResult{tr: newTracer(1 << 16), allocs: make(map[string]float64)}
	tr, h := res.tr, d.h
	ny, err := newNetYield()
	if err != nil {
		res.failed, res.firstErr = 1, err
		return res
	}
	defer ny.close()
	ac := newAllocCounter()
	allocSum, allocN := make(map[string]uint64), make(map[string]uint64)

	openConns := d.reg.Gauge("sshd_open_connections")
	fsyncs := d.reg.Counter("store_fsync_total")
	replays := d.reg.Counter("radius_retransmit_replays_total")
	retrans0 := replays.Value()

	// Leaf probe fixtures. ValidateTOTP is a pure function, so one
	// bench-owned secret serves every login; the store keys are the
	// benchmark's own and the value is about the size of an otpd token record.
	probeSecret := []byte("bench-probe-secret-0")
	recordSized := make([]byte, 180)
	storeKeys := make([]string, 64)
	for i := range storeKeys {
		storeKeys[i] = fmt.Sprintf("bench/probe/%02d", i)
	}

	start := time.Now()
	for id := int32(0); time.Since(start) < dur; id++ {
		o, _ := d.src.take()
		// The first three of every peelEvery enter one level deeper each.
		lv := levelSSHD
		if deep := level(id%peelEvery) + 1; deep <= levelOTPD {
			lv = deep
		}
		root := lv.root()
		f0, a0 := fsyncs.Value(), ac.read()
		err := h.login(o, lv, tr, id)
		if (id+1)%peelEvery == 0 {
			// Close returns before the server has handled the goodbye;
			// let it finish so its work lands in this login's counts.
			for deadline := time.Now().Add(time.Second); openConns.Value() > 0 && time.Now().Before(deadline); {
				ny.yield()
			}
		}
		allocSum[root] += ac.read() - a0
		allocN[root]++
		res.fsyncs += fsyncs.Value() - f0
		d.src.done()
		res.logins++
		if err != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = err
			}
		}
		if id%probeEvery != probeEvery/2 {
			continue
		}

		// Leaf probes, for the member that just logged in. None of them
		// changes what a later login sees.
		m, now := h.member(o), d.sim.Now()
		sp := tr.begin(layerAuthlog, id, noParent)
		d.inf.AuthLog.FindPubkeySuccess(m.name, h.loopback.String(), now, 30*time.Second)
		tr.end(sp)

		sp = tr.begin(layerIDM, id, noParent)
		d.inf.IDM.Authenticate(m.name, password)
		tr.end(sp)

		sp = tr.begin(layerACL, id, noParent)
		d.inf.ACL.Check(m.name, h.loopback, now)
		tr.end(sp)

		good, _ := otp.TOTP(probeSecret, now, h.opts)
		sp = tr.begin(layerValidate, id, noParent)
		otp.ValidateTOTP(probeSecret, good, now, h.opts)
		tr.end(sp)

		// A code from outside the drift window makes the scan visit
		// every step and match none.
		stale, _ := otp.TOTP(probeSecret, now.Add(24*time.Hour), h.opts)
		sp = tr.begin(layerValidateBad, id, noParent)
		otp.ValidateTOTP(probeSecret, stale, now, h.opts)
		tr.end(sp)

		a0 = ac.read()
		sp = tr.begin(layerStore, id, noParent)
		err = d.inf.OTPStore().Apply([]store.Op{{Key: storeKeys[int(id/probeEvery)%len(storeKeys)], Value: recordSized}})
		tr.end(sp)
		allocSum[layerStore] += ac.read() - a0
		allocN[layerStore]++
		if err != nil && res.firstErr == nil {
			res.failed++
			res.firstErr = fmt.Errorf("store probe: %w", err)
		}
	}
	for layer, n := range allocN {
		res.allocs[layer] = float64(allocSum[layer]) / float64(n)
	}
	res.retransmits = replays.Value() - retrans0
	return res
}

// growth is the median of the second half of v over the median of the
// first half: ≈ 1 when a per-call cost does not drift with run length.
// Halves, not fifths: the authlog window holds between one and two passes'
// worth of events depending on how far the current pass has got, and a
// half averages over several passes.
func growth(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	first, second := median(v[:len(v)/2]), median(v[len(v)/2:])
	if first == 0 {
		return 0
	}
	return second / first
}

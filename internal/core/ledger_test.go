package core

import (
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"testing"

	"openmfa/internal/clock"
	"openmfa/internal/idm"
	"openmfa/internal/otp"
	"openmfa/internal/racecheck"
	"openmfa/internal/sshd"
)

// ledgerLogins is how many /totp logins the ledger profiles.
const ledgerLogins = 100

// ledgerCeilings is the allocation ledger of one password + soft TOTP
// login (TestLoginAllocsRatchet's /totp) in whole allocations per login,
// by side and by the package of each site's innermost openmfa/internal
// frame. A change that moves an allocation between layers changes two
// rows; one that lowers a row lowers its ceiling with it. The client rows
// are the driver (sshd.Dial and the test's responder) and never count as
// a gain of the system.
//
// Server, 19: sshd 9 (the accept path's 7, the per-connection state, the
// peer address as text); radius 4 (the per-datagram goroutine, the trace
// ID and user name as strings, the duplicate cache's copy of the reply);
// otpd 4 (the record copy, its JSON encoding, the token key, the audit
// entry); obs 1 (the trace ID); sshwire 1 (the hello's user name).
var ledgerCeilings = map[string]int{
	"server sshd":    9,
	"server radius":  4,
	"server otpd":    4,
	"server obs":     1,
	"server sshwire": 1,
	"client sshd":    14,
	"client sshwire": 5,
	"client otp":     1,
}

// TestLoginAllocLedger profiles every allocation of ledgerLogins fixed
// logins and charges each to its ledger row. The profile is exact
// (runtime.MemProfileRate = 1) and repeatable: the logins run on one P
// with the collector held off, so no sync.Pool is emptied or missed
// mid-run. The allocator's 16-byte tiny blocks are profiled per block,
// not per object, so a row can read below testing.AllocsPerRun's count.
// A row over its ceiling, or one without a ceiling, fails the test; what
// no openmfa frame allocated is stated, not gated.
func TestLoginAllocLedger(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("alloc-count assertions are meaningless under -race")
	}
	inf := newInfra(t, Options{})
	sim := inf.Clock.(*clock.Sim)
	if _, err := inf.CreateUser("alice", "alice@x", "pw", idm.ClassUser); err != nil {
		t.Fatal(err)
	}
	enr, err := inf.PairSoft("alice")
	if err != nil {
		t.Fatal(err)
	}
	opts := inf.OTP.OTPOptions()
	r := &sshd.FuncResponder{Fn: func(echo bool, prompt string) (string, error) {
		if strings.HasPrefix(prompt, "Password") {
			return "pw", nil
		}
		return otp.TOTP(enr.Secret, sim.Now(), opts)
	}}
	login := func() {
		sim.Advance(opts.Period)
		c, err := sshd.Dial(inf.SSHAddr(), DialOpts("alice", r))
		if err != nil {
			t.Fatalf("login: %v", err)
		}
		if err := c.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}
	login() // fill the password verify cache and the decoded records

	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	before := memProfile()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < ledgerLogins; i++ {
		login()
	}
	runtime.ReadMemStats(&ms1)
	after := memProfile()

	ledger := map[string]float64{}
	for stk, n := range after {
		if row := chargeOf(stk); row != "" && n > before[stk] {
			ledger[row] += float64(n-before[stk]) / ledgerLogins
		}
	}
	rows := make([]string, 0, len(ledger))
	for row := range ledger {
		rows = append(rows, row)
	}
	sort.Strings(rows)
	server, client := 0, 0
	for _, row := range rows {
		got := int(math.Round(ledger[row]))
		if got == 0 || strings.HasSuffix(row, " (none)") {
			continue
		}
		if strings.HasPrefix(row, "server ") {
			server += got
		} else {
			client += got
		}
		ceiling, ok := ledgerCeilings[row]
		t.Logf("%-16s %3d allocs/login (ceiling %d)", row, got, ceiling)
		if !ok || got > ceiling {
			t.Errorf("%s: %d allocs/login, ceiling %d", row, got, ceiling)
		}
	}
	// The remainder is what the profile cannot charge to a row: objects
	// packed into a tiny block another object opened, sites with no
	// openmfa frame, and rounding.
	total := float64(ms1.Mallocs-ms0.Mallocs) / ledgerLogins
	t.Logf("server %d + client %d of %.0f allocs/login; unattributed %.0f", server, client, total, total-float64(server+client))
}

// memProfile returns the allocation count of every profiled stack, read
// after two collections so the profile holds every allocation made
// before the call.
func memProfile() map[[32]uintptr]int64 {
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, ok := runtime.MemProfile(recs, true)
	if !ok {
		panic("memory profile grew between two reads")
	}
	out := make(map[[32]uintptr]int64, n)
	for _, rec := range recs[:n] {
		out[rec.Stack0] += rec.AllocObjects
	}
	return out
}

// chargeOf names the ledger row of one allocation stack: "client" when it
// runs under sshd.Dial or this test, "server" otherwise, then the package
// of the innermost openmfa/internal frame, or "(none)". The ledger's own
// bookkeeping reads "".
func chargeOf(stk [32]uintptr) string {
	pcs := stk[:]
	for i, pc := range pcs {
		if pc == 0 {
			pcs = pcs[:i]
			break
		}
	}
	side, pkg := "server", "(none)"
	frames := runtime.CallersFrames(pcs)
	for more := true; more; {
		var f runtime.Frame
		f, more = frames.Next()
		fn, ok := strings.CutPrefix(f.Function, "openmfa/internal/")
		switch {
		case !ok:
		case fn == "core.memProfile":
			return ""
		case fn == "sshd.Dial", strings.HasPrefix(fn, "core.TestLoginAllocLedger"):
			side = "client"
		}
		if ok && pkg == "(none)" {
			// The package path ends at the first dot after its last slash.
			slash := strings.LastIndexByte(fn, '/') + 1
			pkg = fn[:slash+strings.IndexByte(fn[slash:], '.')]
		}
	}
	return side + " " + pkg
}

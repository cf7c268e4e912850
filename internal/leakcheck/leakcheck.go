// Package leakcheck asserts that a test leaves no goroutines behind. The
// degraded-network hardening work (per-phase deadlines in sshd, retransmit
// backoff in the RADIUS client) exists precisely so stalled peers cannot
// pin goroutines forever; this helper is how those tests prove it.
package leakcheck

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// settle is how long Check waits for goroutine counts to drain back to
// baseline before declaring a leak. Network teardown (UDP handler fan-out,
// sshd connection handlers) legitimately takes a few scheduler rounds.
const settle = 5 * time.Second

// Check snapshots the current goroutines and registers a cleanup that
// fails the test if new ones are still alive after the test (and every
// cleanup registered after this call) has finished. Call it first thing:
//
//	func TestX(t *testing.T) {
//		leakcheck.Check(t)
//		...
//	}
//
// Cleanups run LIFO, so servers started (and closed via t.Cleanup) after
// Check are already down when the comparison runs.
func Check(t testing.TB) {
	t.Helper()
	before := interesting(stacks())
	t.Cleanup(func() {
		deadline := time.Now().Add(settle)
		var leaked []string
		for {
			leaked = leaked[:0]
			for id, stack := range interesting(stacks()) {
				if _, ok := before[id]; !ok {
					leaked = append(leaked, stack)
				}
			}
			if len(leaked) == 0 {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Errorf("leakcheck: %d goroutine(s) leaked:\n%s",
			len(leaked), strings.Join(leaked, "\n---\n"))
	})
}

// stacks returns every goroutine's stack, keyed by goroutine ID line.
func stacks() map[string]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	out := make(map[string]string)
	for _, g := range strings.Split(string(buf), "\n\n") {
		if g == "" {
			continue
		}
		id := g
		if i := strings.Index(g, "\n"); i >= 0 {
			id = g[:i]
		}
		out[id] = g
	}
	return out
}

// interesting filters out runtime and testing-harness goroutines that come
// and go on their own and would make the comparison flaky.
func interesting(gs map[string]string) map[string]string {
	out := make(map[string]string, len(gs))
	for id, stack := range gs {
		switch {
		case strings.Contains(stack, "testing.(*T).Run"),
			strings.Contains(stack, "testing.Main"),
			strings.Contains(stack, "testing.runTests"),
			strings.Contains(stack, "testing.tRunner.func"),
			strings.Contains(stack, "runtime.gc"),
			strings.Contains(stack, "runtime.MHeap_Scavenger"),
			strings.Contains(stack, "signal.signal_recv"),
			strings.Contains(stack, "sigterm.handler"),
			strings.Contains(stack, "runtime_mcall"),
			strings.Contains(stack, "goroutine in C code"):
			continue
		}
		out[id] = stack
	}
	return out
}

// Count returns the number of interesting goroutines right now — handy for
// asserting a server's handler fan-out returned to baseline mid-test.
func Count() int { return len(interesting(stacks())) }

package sshd

import (
	"net"
	"testing"
	"time"

	"openmfa/internal/leakcheck"
	"openmfa/internal/obs"
)

// TestStalledClientDisconnected is the regression test for the unbounded
// pre-auth hang: a client that connects and never speaks used to hold its
// handler goroutine (and its conn map slot) forever.
func TestStalledClientDisconnected(t *testing.T) {
	leakcheck.Check(t)
	h := newHarness(t, "")
	h.server.AuthTimeout = 200 * time.Millisecond
	h.server.Obs = obs.NewRegistry()

	raw, err := net.Dial("tcp", h.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// Say nothing. The server must hang up on its own.
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	if _, err := raw.Read(make([]byte, 64)); err == nil {
		// The server may first emit a TError frame; the disconnect is
		// what matters.
		if _, err := raw.Read(make([]byte, 64)); err == nil {
			t.Fatal("server kept a silent client connected")
		}
	}
	if took := time.Since(start); took > 3*time.Second {
		t.Fatalf("disconnect took %v, want about the 200ms grace time", took)
	}
	if v := h.server.Obs.Counter("sshd_io_timeouts_total").Value(); v < 1 {
		t.Fatal("io-timeout counter not incremented")
	}
}

func TestIdleSessionDisconnected(t *testing.T) {
	leakcheck.Check(t)
	h := newHarness(t, "")
	h.server.idleTimeout = 200 * time.Millisecond
	h.addUser(t, "alice", "pw")
	code := h.pairSoft(t, "alice")

	c, err := Dial(h.addr(), DialOptions{
		User: "alice", TTY: true, Responder: pwTokenResponder("pw", code),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// An active session survives: consecutive execs inside the window.
	if out, err := c.Exec("whoami"); err != nil || out != "alice" {
		t.Fatalf("exec = %q, %v", out, err)
	}

	time.Sleep(600 * time.Millisecond)
	// Either the write or the read of this exec must observe the hangup;
	// allow one extra round for the error to surface.
	if _, err := c.Exec("whoami"); err == nil {
		if _, err := c.Exec("whoami"); err == nil {
			t.Fatal("idle session survived past idleTimeout")
		}
	}
}

func TestConnectionCapRejectsExcess(t *testing.T) {
	leakcheck.Check(t)
	h := newHarness(t, "")
	h.server.maxConns = 1
	h.server.Obs = obs.NewRegistry()
	h.addUser(t, "alice", "pw")
	code := h.pairSoft(t, "alice")

	first, err := Dial(h.addr(), DialOptions{
		User: "alice", TTY: true, Responder: pwTokenResponder("pw", code),
	})
	if err != nil {
		t.Fatal(err)
	}

	// The slot is taken: the second connection is closed before auth.
	if c, err := Dial(h.addr(), DialOptions{
		User: "alice", TTY: true, Responder: pwTokenResponder("pw", code),
	}); err == nil {
		c.Close()
		t.Fatal("dial beyond maxConns succeeded")
	}
	if v := h.server.Obs.Counter("sshd_conns_rejected_total", "reason", "capacity").Value(); v < 1 {
		t.Fatal("capacity rejection not counted")
	}

	// Releasing the slot restores service. Advance the simulated clock
	// each try so TOTP replay protection sees a fresh code, not the one
	// the first login consumed.
	first.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		h.sim.Advance(90 * time.Second)
		c, err := Dial(h.addr(), DialOptions{
			User: "alice", TTY: true, Responder: pwTokenResponder("pw", code),
		})
		if err == nil {
			c.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("service never recovered after the capacity slot freed: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

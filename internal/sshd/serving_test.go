package sshd

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"openmfa/internal/authlog"
	"openmfa/internal/eventstream"
	"openmfa/internal/leakcheck"
)

// maxIdle is the bound syncutil.Workers keeps on idle workers.
const maxIdle = 2

// pipeAddr is a peer address that is not TCP.
type pipeAddr string

func (a pipeAddr) Network() string { return "pipe" }
func (a pipeAddr) String() string  { return string(a) }

// pipeConn is the server end of a net.Pipe with its own peer address.
type pipeConn struct {
	net.Conn
	peer net.Addr
}

func (c pipeConn) RemoteAddr() net.Addr { return c.peer }

// pipeListener accepts the server ends of the pipes its dialers make.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr("pipe-listener") }

// dialer returns a DialOptions.Dialer whose connections reach the server
// from peer.
func (l *pipeListener) dialer(peer string) func(string, string) (net.Conn, error) {
	return func(string, string) (net.Conn, error) {
		client, server := net.Pipe()
		select {
		case l.conns <- pipeConn{Conn: server, peer: pipeAddr(peer)}:
			return client, nil
		case <-l.done:
			client.Close()
			server.Close()
			return nil, net.ErrClosed
		}
	}
}

// TestNonTCPPeersKeepTheirAddresses: a connection whose peer address is
// not TCP is logged and published under that address's own text, so two
// such peers stay apart in the auth log and on the bus, and neither reads
// "<nil>".
func TestNonTCPPeersKeepTheirAddresses(t *testing.T) {
	leakcheck.Check(t)
	h := newHarness(t, "")
	bus := eventstream.NewBus(nil)
	sub := bus.Subscribe(64)
	defer sub.Close()
	ln := newPipeListener()
	srv := &Server{
		IDM: h.idm, AuthLog: h.alog, Stack: h.server.Stack, Clock: h.sim, Events: bus,
		Listen: func(string, string) (net.Listener, error) { return ln, nil },
	}
	if err := srv.ListenAndServe("pipe"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	peers := map[string]string{"alice": "peer-a", "bob": "peer-b"}
	for _, user := range []string{"alice", "bob"} {
		h.addUser(t, user, "pw")
		code := h.pairSoft(t, user)
		c, err := Dial("pipe", DialOptions{
			User: user, Responder: pwTokenResponder("pw", code), Dialer: ln.dialer(peers[user]),
		})
		if err != nil {
			t.Fatalf("%s: %v", user, err)
		}
		c.Close()
		h.sim.Advance(time.Minute)
	}
	srv.Close() // every session has ended and logged its close

	seen := map[string]bool{}
	h.alog.ScanRecent(func(e authlog.Event) bool {
		if e.Addr != peers[e.User] {
			t.Errorf("authlog %s event for %s: addr %q, want %q", e.Type, e.User, e.Addr, peers[e.User])
		}
		seen[e.Addr] = true
		return true
	})
	for user, peer := range peers {
		if !seen[peer] {
			t.Errorf("no authlog event from %s's peer %q", user, peer)
		}
	}
	logins := 0
	for logins < len(peers) {
		select {
		case e := <-sub.Events():
			if e.Type != eventstream.TypeLogin {
				continue
			}
			logins++
			if e.Addr != peers[e.User] {
				t.Errorf("login event for %s: addr %q, want %q", e.User, e.Addr, peers[e.User])
			}
		default:
			t.Fatalf("%d login events published, want %d", logins, len(peers))
		}
	}
}

// TestStalledClientDoesNotDelayLogin: a client that stops answering at
// the token prompt holds only its own worker, so a second client logs in
// while it waits.
func TestStalledClientDoesNotDelayLogin(t *testing.T) {
	leakcheck.Check(t)
	h := newHarness(t, "")
	h.addUser(t, "alice", "pw")
	aliceCode := h.pairSoft(t, "alice")
	h.addUser(t, "bob", "pw")
	bobCode := h.pairSoft(t, "bob")

	atPrompt := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	unstall := func() { once.Do(func() { close(release) }) }
	defer unstall()
	stalled := &FuncResponder{Fn: func(echo bool, prompt string) (string, error) {
		switch {
		case strings.Contains(prompt, "Password"):
			return "pw", nil
		case strings.Contains(prompt, "Token"):
			close(atPrompt)
			<-release
			return aliceCode(), nil
		}
		return "", nil
	}}
	aliceDone := make(chan error, 1)
	go func() {
		c, err := Dial(h.addr(), DialOptions{User: "alice", Responder: stalled})
		if err == nil {
			c.Close()
		}
		aliceDone <- err
	}()
	select {
	case <-atPrompt:
	case <-time.After(5 * time.Second):
		t.Fatal("alice never reached the token prompt")
	}

	bobDone := make(chan error, 1)
	go func() {
		c, err := Dial(h.addr(), DialOptions{User: "bob", Responder: pwTokenResponder("pw", bobCode)})
		if err == nil {
			c.Close()
		}
		bobDone <- err
	}()
	select {
	case err := <-bobDone:
		if err != nil {
			t.Fatalf("bob: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("bob's login waited on alice's stalled one")
	}
	unstall()
	if err := <-aliceDone; err != nil {
		t.Fatalf("alice after the stall: %v", err)
	}
}

// TestWorkersReturnToIdleBoundAfterBurst: a burst of concurrent logins
// grows the sshd and RADIUS workers with it, and once it is over each
// server keeps at most maxIdle of them.
func TestWorkersReturnToIdleBoundAfterBurst(t *testing.T) {
	leakcheck.Check(t)
	const burst = 16
	h := newHarness(t, "")
	codes := make([]func() string, burst)
	for i := range codes {
		user := fmt.Sprintf("u%02d", i)
		h.addUser(t, user, "pw")
		codes[i] = h.pairSoft(t, user)
	}
	base := leakcheck.Count() // one worker on each server

	var wg sync.WaitGroup
	errs := make(chan error, burst)
	for i := range codes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(h.addr(), DialOptions{
				User: fmt.Sprintf("u%02d", i), Responder: pwTokenResponder("pw", codes[i]),
			})
			if err != nil {
				errs <- err
				return
			}
			c.Close()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for n := leakcheck.Count(); n > base-2+2*maxIdle; n = leakcheck.Count() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the burst, baseline %d: idle workers are not bounded", n, base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

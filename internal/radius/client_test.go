package radius

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"openmfa/internal/leakcheck"
	"openmfa/internal/obs"
)

// deadAddr binds a UDP port and immediately closes it, yielding an address
// that answers ECONNREFUSED (via ICMP port-unreachable on loopback).
func deadAddr(t *testing.T) string {
	t.Helper()
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	addr := c.LocalAddr().String()
	c.Close()
	return addr
}

// silentAddr binds a UDP socket that receives but never answers, counting
// the datagrams it swallows — a black-holed server.
func silentAddr(t *testing.T) (string, *int32) {
	t.Helper()
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	got := new(int32)
	go func() {
		buf := make([]byte, MaxPacketLen)
		for {
			if _, _, err := c.ReadFromUDP(buf); err != nil {
				return
			}
			atomic.AddInt32(got, 1)
		}
	}()
	return c.LocalAddr().String(), got
}

// TestSpoofedResponseSilentlyDiscarded is the regression test for the
// RFC 2865 §3 violation: a forged datagram used to abort the exchange with
// a verification error even though the genuine server's signed reply was
// already in flight.
func TestSpoofedResponseSilentlyDiscarded(t *testing.T) {
	leakcheck.Check(t)
	secret := []byte("s")
	srv, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	reg := obs.NewRegistry()
	c := &Client{Addr: srv.LocalAddr().String(), Secret: secret,
		Timeout: 2 * time.Second, Retries: NoRetry, Obs: reg}

	// Fake server: first a forged response (right Identifier, garbage
	// authenticator — what an off-path attacker who guessed the ID can
	// send), then the genuine, correctly signed Access-Accept.
	go func() {
		buf := make([]byte, MaxPacketLen)
		srv.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, client, err := srv.ReadFromUDP(buf)
		if err != nil {
			return
		}
		req, err := Decode(buf[:n])
		if err != nil {
			return
		}

		forged := &Packet{Code: AccessAccept, Identifier: req.Identifier}
		copy(forged.Authenticator[:], []byte("not-a-real-authentic"))
		forgedWire, _ := forged.Encode()
		srv.WriteToUDP(forgedWire, client)

		genuine := &Packet{Code: AccessAccept, Identifier: req.Identifier,
			Authenticator: req.Authenticator}
		genuine.AddString(AttrReplyMessage, "ok")
		if err := AddMessageAuthenticator(genuine, secret); err != nil {
			return
		}
		genuine.Authenticator = [16]byte{}
		if err := SignResponse(genuine, req.Authenticator, secret); err != nil {
			return
		}
		wire, _ := genuine.Encode()
		srv.WriteToUDP(wire, client)
	}()

	req := NewRequest(0)
	req.AddString(AttrUserName, "u")
	resp, err := c.Exchange(req)
	if err != nil {
		t.Fatalf("exchange aborted by spoofed datagram: %v", err)
	}
	if resp.Code != AccessAccept || resp.GetString(AttrReplyMessage) != "ok" {
		t.Fatalf("got %v %q, want genuine Access-Accept", resp.Code, resp.GetString(AttrReplyMessage))
	}
	if v := reg.Counter("radius_client_discards_total", "reason", "bad_authenticator").Value(); v != 1 {
		t.Fatalf("bad_authenticator discards = %d, want 1", v)
	}
}

// TestReplyWithoutMessageAuthenticatorDiscarded: a reply whose Response
// Authenticator is correct but which carries no Message-Authenticator is
// discarded, so the exchange times out rather than trusting it.
func TestReplyWithoutMessageAuthenticatorDiscarded(t *testing.T) {
	leakcheck.Check(t)
	secret := []byte("s")
	srv, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go func() {
		buf := make([]byte, MaxPacketLen)
		n, client, err := srv.ReadFromUDP(buf)
		if err != nil {
			return
		}
		req, err := Decode(buf[:n])
		if err != nil {
			return
		}
		unsigned := &Packet{Code: AccessAccept, Identifier: req.Identifier}
		if SignResponse(unsigned, req.Authenticator, secret) != nil {
			return
		}
		wire, _ := unsigned.Encode()
		srv.WriteToUDP(wire, client)
	}()

	reg := obs.NewRegistry()
	c := &Client{Addr: srv.LocalAddr().String(), Secret: secret,
		Timeout: 300 * time.Millisecond, Retries: NoRetry, Obs: reg}
	req := NewRequest(0)
	req.AddString(AttrUserName, "u")
	if resp, err := c.Exchange(req); err != ErrTimeout {
		t.Fatalf("exchange = %v, %v; want ErrTimeout", resp, err)
	}
	if v := reg.Counter("radius_client_discards_total", "reason", "missing_message_authenticator").Value(); v != 1 {
		t.Fatalf("missing_message_authenticator discards = %d, want 1", v)
	}
}

// TestConcurrentRepliesOwnTheirBytes runs concurrent exchanges through one
// Pool, each with its own user name and State, and checks every reply
// only after all of them have finished: each must still carry its own
// State and Reply-Message. It pins two rules: a reply owns its bytes (no
// later exchange's pooled scratch shows through it), and the server's
// request and reply views die when the handler returns (what a reply
// echoes is copied into it). Run under -race it also catches a shared
// buffer written by two exchanges at once.
func TestConcurrentRepliesOwnTheirBytes(t *testing.T) {
	leakcheck.Check(t)
	secret := []byte("s")
	srv := &Server{Secret: secret, Handler: HandlerFunc(func(reply *Packet, req *Request) bool {
		reply.Code = AccessChallenge
		reply.Add(AttrState, req.State())
		reply.AddString(AttrReplyMessage, "hello "+req.Username())
		return true
	})}
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pool := NewPool([]string{srv.Addr().String()}, secret, 2*time.Second, 0)
	defer pool.Close()

	type sent struct {
		user, state string
		resp        *Packet
	}
	const workers, rounds = 8, 25
	results := make([][]sent, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				user, state := fmt.Sprintf("user-%d-%d", w, r), fmt.Sprintf("state-%d-%d", w, r)
				resp, err := pool.Exchange(func(req *Packet) {
					req.AddString(AttrUserName, user)
					req.AddString(AttrState, state)
				})
				if err != nil {
					t.Error(err)
					return
				}
				results[w] = append(results[w], sent{user, state, resp})
			}
		}(w)
	}
	wg.Wait()
	for _, rs := range results {
		for _, r := range rs {
			if got := r.resp.GetString(AttrState); got != r.state {
				t.Errorf("%s: reply State %q, want %q", r.user, got, r.state)
			}
			if got, want := r.resp.GetString(AttrReplyMessage), "hello "+r.user; got != want {
				t.Errorf("%s: reply Reply-Message %q, want %q", r.user, got, want)
			}
		}
	}
}

// TestDeadServerRetransmitBackoff is the regression test for the hot loop:
// against a dead server every attempt fails with ECONNREFUSED in
// microseconds, so the whole retry budget used to burn instantly.
func TestDeadServerRetransmitBackoff(t *testing.T) {
	leakcheck.Check(t)
	c := &Client{Addr: deadAddr(t), Secret: []byte("s"),
		Timeout: 300 * time.Millisecond, Retries: 1}
	req := NewRequest(0)
	req.AddString(AttrUserName, "u")
	start := time.Now()
	if _, err := c.Exchange(req); err == nil {
		t.Fatal("exchange against dead server succeeded")
	}
	// One backoff pause between the two attempts: >= base/2 with jitter.
	if took := time.Since(start); took < DefaultBackoff/2 {
		t.Fatalf("retry budget burned in %v; no backoff between attempts", took)
	}
}

func TestBackoffSkippedOnPureTimeout(t *testing.T) {
	leakcheck.Check(t)
	addr, _ := silentAddr(t)
	c := &Client{Addr: addr, Secret: []byte("s"),
		Timeout: 50 * time.Millisecond, Retries: 2}
	req := NewRequest(0)
	req.AddString(AttrUserName, "u")
	start := time.Now()
	if _, err := c.Exchange(req); err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	// Three timeout-paced attempts and nothing else: no extra sleeps.
	if took := time.Since(start); took > 400*time.Millisecond {
		t.Fatalf("timeout-paced attempts took %v; backoff added on top of timeouts", took)
	}
}

// TestConfigValidation is the regression test for the sentinel semantics:
// Retries: -1 used to mean zero attempts returning ErrTimeout without a
// single datagram leaving the host.
func TestConfigValidation(t *testing.T) {
	leakcheck.Check(t)
	req := func() *Packet {
		r := NewRequest(0)
		r.AddString(AttrUserName, "u")
		return r
	}

	c := &Client{Addr: "127.0.0.1:1", Secret: []byte("s"), Timeout: -time.Second}
	if _, err := c.Exchange(req()); !errors.Is(err, ErrConfig) {
		t.Fatalf("negative Timeout err = %v, want ErrConfig", err)
	}
	c = &Client{Addr: "127.0.0.1:1", Secret: []byte("s"), Retries: -2}
	if _, err := c.Exchange(req()); !errors.Is(err, ErrConfig) {
		t.Fatalf("Retries -2 err = %v, want ErrConfig", err)
	}

	// NoRetry means exactly one datagram on the wire.
	addr, got := silentAddr(t)
	c = &Client{Addr: addr, Secret: []byte("s"),
		Timeout: 100 * time.Millisecond, Retries: NoRetry}
	if _, err := c.Exchange(req()); err != ErrTimeout {
		t.Fatalf("single-shot err = %v, want ErrTimeout", err)
	}
	time.Sleep(50 * time.Millisecond)
	if n := atomic.LoadInt32(got); n != 1 {
		t.Fatalf("NoRetry sent %d datagrams, want exactly 1", n)
	}
}

// TestPoolCooldownExpiresMidExchange is the regression test for the stale
// clock in Pool.exchange: `now` was captured once, so a cooldown expiring
// while an earlier attempt burned its timeout was never noticed and the
// exchange hard-failed with a healthy server available.
func TestPoolCooldownExpiresMidExchange(t *testing.T) {
	leakcheck.Check(t)
	secret := []byte("s")
	live := &Server{Secret: secret, Handler: HandlerFunc(func(reply *Packet, _ *Request) bool {
		reply.Code = AccessAccept
		return true
	})}
	if err := live.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer live.Close()

	silentA, _ := silentAddr(t)
	silentB, _ := silentAddr(t)
	// Order matters: A is picked first, the live server is cooling until
	// shortly before A's timeout expires, B is the stale-clock victim.
	pool := NewPool([]string{silentA, live.Addr().String(), silentB},
		secret, 400*time.Millisecond, NoRetry)
	pool.mu.Lock()
	pool.downTil[1] = time.Now().Add(300 * time.Millisecond)
	pool.mu.Unlock()

	resp, err := pool.Exchange(buildReq("u", "123456", secret))
	if err != nil {
		t.Fatalf("exchange failed despite the live server's cooldown expiring mid-exchange: %v", err)
	}
	if resp.Code != AccessAccept {
		t.Fatalf("code = %v", resp.Code)
	}
}

// TestPoolFallbackSkipsJustFailedServer is the regression test for the
// desperate fallback re-picking the server that just failed: with every
// server cooling down, attempt%n could land on the index the previous
// attempt already proved dead, while a live server sat idle.
func TestPoolFallbackSkipsJustFailedServer(t *testing.T) {
	leakcheck.Check(t)
	secret := []byte("s")
	live := &Server{Secret: secret, Handler: HandlerFunc(func(reply *Packet, _ *Request) bool {
		reply.Code = AccessAccept
		return true
	})}
	if err := live.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer live.Close()

	pool := NewPool([]string{live.Addr().String(), deadAddr(t)},
		secret, 200*time.Millisecond, NoRetry)
	// Force the flap state: the live server (idx 0) is cooling, so pick
	// starts at the dead idx 1; after it fails, every later attempt falls
	// back to round-robin and must not re-pick idx 1.
	pool.mu.Lock()
	pool.downTil[0] = time.Now().Add(time.Hour)
	pool.next = 1
	pool.mu.Unlock()

	resp, err := pool.Exchange(buildReq("u", "123456", secret))
	if err != nil {
		t.Fatalf("fallback re-picked the just-failed server: %v", err)
	}
	if resp.Code != AccessAccept {
		t.Fatalf("code = %v", resp.Code)
	}
}

// dialCounter is a Dial hook that counts dials and remembers every socket
// it handed out.
type dialCounter struct {
	mu    sync.Mutex
	conns []net.Conn
}

func (d *dialCounter) dial(network, addr string) (net.Conn, error) {
	c, err := net.Dial(network, addr)
	if err == nil {
		d.mu.Lock()
		d.conns = append(d.conns, c)
		d.mu.Unlock()
	}
	return c, err
}

func (d *dialCounter) count() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.conns)
}

// isClosed reports whether a socket was closed, by the error a write to a
// closed net.Conn returns.
func isClosed(c net.Conn) bool {
	_, err := c.Write([]byte{0})
	return errors.Is(err, net.ErrClosed)
}

// TestSocketReuseDialsOnce: a sequential stream of exchanges runs on one
// connected socket.
func TestSocketReuseDialsOnce(t *testing.T) {
	leakcheck.Check(t)
	secret := []byte("s")
	_, addr := startServer(t, secret)
	var d dialCounter
	c := &Client{Addr: addr, Secret: secret, Timeout: 2 * time.Second, Dial: d.dial}
	defer c.Close()
	for i := 0; i < 100; i++ {
		req := NewRequest(0)
		buildReq("u", "123456", secret)(req)
		resp, err := c.Exchange(req)
		if err != nil || resp.Code != AccessAccept {
			t.Fatalf("exchange %d: %v, %v", i, resp, err)
		}
	}
	if n := d.count(); n != 1 {
		t.Fatalf("100 sequential exchanges dialled %d sockets, want 1", n)
	}
}

// answerTwice runs a fake server that answers every Access-Request with
// two copies of a genuine, signed Access-Accept, and reports on the
// returned channel once both copies have been written.
func answerTwice(t *testing.T, secret []byte) (string, <-chan struct{}) {
	t.Helper()
	srv, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	answered := make(chan struct{}, 16)
	go func() {
		buf := make([]byte, MaxPacketLen)
		for {
			n, client, err := srv.ReadFromUDP(buf)
			if err != nil {
				return
			}
			req, err := Decode(buf[:n])
			if err != nil {
				continue
			}
			resp := &Packet{Code: AccessAccept, Identifier: req.Identifier, Authenticator: req.Authenticator}
			if AddMessageAuthenticator(resp, secret) != nil || SignResponse(resp, req.Authenticator, secret) != nil {
				continue
			}
			wire, _ := resp.Encode()
			srv.WriteToUDP(wire, client)
			srv.WriteToUDP(wire, client)
			answered <- struct{}{}
		}
	}()
	return srv.LocalAddr().String(), answered
}

// TestStaleReplyOnReusedSocketDiscarded: the second copy of a reply waits
// in the reused socket's queue when the next exchange starts. It is
// discarded by Identifier, and when the Identifier happens to repeat (the
// counter wraps every 256 exchanges) by the Response Authenticator, which
// is bound to the new request's random authenticator. Each discard is
// counted, and every exchange still gets its own verified reply.
func TestStaleReplyOnReusedSocketDiscarded(t *testing.T) {
	leakcheck.Check(t)
	secret := []byte("s")
	addr, answered := answerTwice(t, secret)
	reg := obs.NewRegistry()
	var d dialCounter
	c := &Client{Addr: addr, Secret: secret, Timeout: 2 * time.Second,
		Retries: NoRetry, Dial: d.dial, Obs: reg}
	defer c.Close()
	exchange := func() {
		t.Helper()
		req := NewRequest(0)
		req.AddString(AttrUserName, "u")
		resp, err := c.Exchange(req)
		if err != nil || resp.Code != AccessAccept || resp.Identifier != req.Identifier {
			t.Fatalf("exchange: %v, %v", resp, err)
		}
		<-answered // the duplicate is queued on the socket
	}
	discards := func(reason string) int64 {
		return reg.Counter("radius_client_discards_total", "reason", reason).Value()
	}

	exchange()
	exchange()
	if got := discards("id_mismatch"); got != 1 {
		t.Fatalf("id_mismatch discards = %d, want 1", got)
	}
	atomic.AddUint32(&c.idCounter, ^uint32(0)) // reuse the last Identifier
	exchange()
	if got := discards("bad_authenticator"); got != 1 {
		t.Fatalf("bad_authenticator discards = %d, want 1", got)
	}
	if n := d.count(); n != 1 {
		t.Fatalf("dialled %d sockets, want 1", n)
	}
}

// TestDeadServerSocketNotReused: an exchange that ends in an error or a
// timeout closes its socket instead of keeping it.
func TestDeadServerSocketNotReused(t *testing.T) {
	leakcheck.Check(t)
	silent, _ := silentAddr(t)
	for _, addr := range []string{deadAddr(t), silent} {
		var d dialCounter
		c := &Client{Addr: addr, Secret: []byte("s"), Timeout: 50 * time.Millisecond,
			Retries: NoRetry, Dial: d.dial}
		for i := 0; i < 2; i++ {
			req := NewRequest(0)
			req.AddString(AttrUserName, "u")
			if _, err := c.Exchange(req); err == nil {
				t.Fatalf("%s: exchange succeeded", addr)
			}
		}
		if n := d.count(); n != 2 {
			t.Fatalf("%s: 2 failed exchanges dialled %d sockets, want 2", addr, n)
		}
		for i, conn := range d.conns {
			if !isClosed(conn) {
				t.Fatalf("%s: socket %d left open after a failed exchange", addr, i)
			}
		}
		if len(c.idle) != 0 {
			t.Fatalf("%s: %d idle sockets kept after failures", addr, len(c.idle))
		}
	}
}

// TestSocketReuseBoundedUnderBurst: a burst wider than the idle list keeps
// at most maxIdleConns sockets and closes the rest.
func TestSocketReuseBoundedUnderBurst(t *testing.T) {
	leakcheck.Check(t)
	secret := []byte("s")
	_, addr := startServer(t, secret)
	var d dialCounter
	c := &Client{Addr: addr, Secret: secret, Timeout: 2 * time.Second, Dial: d.dial}
	defer c.Close()
	var wg sync.WaitGroup
	for i := 0; i < 4*maxIdleConns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := NewRequest(0)
			buildReq("u", "123456", secret)(req)
			if _, err := c.Exchange(req); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	open := 0
	for _, conn := range d.conns {
		if !isClosed(conn) {
			open++
		}
	}
	if open != len(c.idle) || open > maxIdleConns {
		t.Fatalf("%d sockets open, %d idle; want idle = open ≤ %d", open, len(c.idle), maxIdleConns)
	}
}

// TestPoolCloseAndSetDialDrainIdleSockets: Pool.Close closes the members'
// idle sockets, and SetDial drains them so the next exchange dials
// through the new hook.
func TestPoolCloseAndSetDialDrainIdleSockets(t *testing.T) {
	leakcheck.Check(t)
	secret := []byte("s")
	_, addr := startServer(t, secret)
	pool := NewPool([]string{addr}, secret, 2*time.Second, NoRetry)
	var first, second dialCounter
	pool.SetDial(first.dial)
	exchange := func() {
		t.Helper()
		if resp, err := pool.Exchange(buildReq("u", "123456", secret)); err != nil || resp.Code != AccessAccept {
			t.Fatalf("exchange: %v, %v", resp, err)
		}
	}
	exchange()
	exchange()
	if first.count() != 1 || isClosed(first.conns[0]) {
		t.Fatalf("first hook: %d dials, want 1 kept open", first.count())
	}
	pool.SetDial(second.dial)
	if !isClosed(first.conns[0]) {
		t.Fatal("SetDial left the old hook's idle socket open")
	}
	exchange()
	if second.count() != 1 {
		t.Fatalf("after SetDial the new hook saw %d dials, want 1", second.count())
	}
	pool.Close()
	if !isClosed(second.conns[0]) {
		t.Fatal("Pool.Close left an idle socket open")
	}
}

// TestCloseDuringExchangeClosesItsSocket: a socket whose exchange was in
// flight when Close ran is closed when the exchange ends, not kept.
func TestCloseDuringExchangeClosesItsSocket(t *testing.T) {
	leakcheck.Check(t)
	secret := []byte("s")
	entered, release := make(chan struct{}), make(chan struct{})
	srv := &Server{Secret: secret, Handler: HandlerFunc(func(reply *Packet, _ *Request) bool {
		close(entered)
		<-release
		reply.Code = AccessAccept
		return true
	})}
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var d dialCounter
	c := &Client{Addr: srv.Addr().String(), Secret: secret, Timeout: 2 * time.Second,
		Retries: NoRetry, Dial: d.dial}
	done := make(chan error)
	go func() {
		req := NewRequest(0)
		req.AddString(AttrUserName, "u")
		_, err := c.Exchange(req)
		done <- err
	}()
	<-entered
	c.Close()
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !isClosed(d.conns[0]) || len(c.idle) != 0 {
		t.Fatalf("socket in flight across Close was kept (%d idle)", len(c.idle))
	}
}

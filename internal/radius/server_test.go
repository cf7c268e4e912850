package radius

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"openmfa/internal/obs"
)

// startServer launches a server whose handler accepts password "123456",
// challenges on empty password, and rejects otherwise.
func startServer(t *testing.T, secret []byte) (*Server, string) {
	t.Helper()
	var handled int32
	srv := &Server{
		Secret: secret,
		Handler: HandlerFunc(func(reply *Packet, req *Request) bool {
			atomic.AddInt32(&handled, 1)
			pw, err := req.Password()
			if err != nil {
				reply.Code = AccessReject
				return true
			}
			switch pw {
			case "123456":
				reply.Code = AccessAccept
				reply.AddString(AttrReplyMessage, "ok")
				return true
			case "":
				reply.Code = AccessChallenge
				reply.Add(AttrState, []byte("challenge-1"))
				reply.AddString(AttrReplyMessage, "enter token")
				return true
			default:
				reply.Code = AccessReject
				return true
			}
		}),
	}
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, srv.Addr().String()
}

func buildReq(user, pw string, secret []byte) func(*Packet) {
	return func(req *Packet) {
		req.AddString(AttrUserName, user)
		hidden, err := HidePassword(pw, secret, req.Authenticator)
		if err != nil {
			panic(err)
		}
		req.Add(AttrUserPassword, hidden)
	}
}

func exchange(t *testing.T, addr string, secret []byte, user, pw string) *Packet {
	t.Helper()
	c := &Client{Addr: addr, Secret: secret, Timeout: 2 * time.Second}
	req := NewRequest(0)
	buildReq(user, pw, secret)(req)
	resp, err := c.Exchange(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestClientServerAccept(t *testing.T) {
	secret := []byte("tacc-radius")
	_, addr := startServer(t, secret)
	resp := exchange(t, addr, secret, "cproctor", "123456")
	if resp.Code != AccessAccept {
		t.Fatalf("code = %v, want Access-Accept", resp.Code)
	}
	if resp.GetString(AttrReplyMessage) != "ok" {
		t.Fatalf("Reply-Message = %q", resp.GetString(AttrReplyMessage))
	}
}

func TestClientServerReject(t *testing.T) {
	secret := []byte("tacc-radius")
	_, addr := startServer(t, secret)
	resp := exchange(t, addr, secret, "cproctor", "999999")
	if resp.Code != AccessReject {
		t.Fatalf("code = %v, want Access-Reject", resp.Code)
	}
}

func TestChallengeResponseFlow(t *testing.T) {
	secret := []byte("tacc-radius")
	_, addr := startServer(t, secret)
	// Null request triggers a challenge (the SMS flow, §3.4: "a null
	// RADIUS response is forwarded to LinOTP which triggers a request
	// to Twilio").
	resp := exchange(t, addr, secret, "storm", "")
	if resp.Code != AccessChallenge {
		t.Fatalf("code = %v, want Access-Challenge", resp.Code)
	}
	state, ok := resp.Get(AttrState)
	if !ok || string(state) != "challenge-1" {
		t.Fatalf("State = %q, %v", state, ok)
	}
	// Second round with the token code and the returned State.
	c := &Client{Addr: addr, Secret: secret, Timeout: 2 * time.Second}
	req := NewRequest(0)
	req.AddString(AttrUserName, "storm")
	hidden, _ := HidePassword("123456", secret, req.Authenticator)
	req.Add(AttrUserPassword, hidden)
	req.Add(AttrState, state)
	resp2, err := c.Exchange(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Code != AccessAccept {
		t.Fatalf("code = %v, want Access-Accept", resp2.Code)
	}
}

func TestWrongSecretFailsVerification(t *testing.T) {
	secret := []byte("right")
	_, addr := startServer(t, secret)
	// The server drops requests whose Message-Authenticator fails under
	// its secret, so the client times out.
	c := &Client{Addr: addr, Secret: []byte("wrong"), Timeout: 100 * time.Millisecond, Retries: 1}
	req := NewRequest(0)
	req.AddString(AttrUserName, "u")
	hidden, _ := HidePassword("123456", []byte("wrong"), req.Authenticator)
	req.Add(AttrUserPassword, hidden)
	if _, err := c.Exchange(req); err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestDuplicateRetransmissionAnsweredFromCache(t *testing.T) {
	secret := []byte("s")
	var calls int32
	srv := &Server{
		Secret: secret,
		Handler: HandlerFunc(func(reply *Packet, req *Request) bool {
			atomic.AddInt32(&calls, 1)
			reply.Code = AccessAccept
			return true
		}),
	}
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Hand-roll a client so the exact same datagram is sent twice from
	// one source port.
	req := NewRequest(0)
	req.Identifier = 42
	req.AddString(AttrUserName, "u")
	AddMessageAuthenticator(req, secret)
	wire, _ := req.Encode()

	conn, err := net.Dial("udp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, MaxPacketLen)
	for i := 0; i < 2; i++ {
		if _, err := conn.Write(wire); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := conn.Read(buf); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	if got := atomic.LoadInt32(&calls); got != 1 {
		t.Fatalf("handler called %d times for duplicate request, want 1", got)
	}
}

func TestServerIgnoresNonRequests(t *testing.T) {
	secret := []byte("s")
	srv := &Server{Secret: secret, Handler: HandlerFunc(func(reply *Packet, _ *Request) bool {
		t.Error("handler called for non-request packet")
		return false
	})}
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p := &Packet{Code: AccessAccept, Identifier: 1}
	wire, _ := p.Encode()
	conn, _ := net.Dial("udp", srv.Addr().String())
	defer conn.Close()
	conn.Write(wire)
	conn.Write([]byte{1, 2}) // malformed too
	time.Sleep(50 * time.Millisecond)
}

func TestPoolRoundRobin(t *testing.T) {
	secret := []byte("s")
	var hits [2]int32
	var srvs [2]*Server
	var addrs []string
	for i := 0; i < 2; i++ {
		i := i
		srvs[i] = &Server{Secret: secret, Handler: HandlerFunc(func(reply *Packet, _ *Request) bool {
			atomic.AddInt32(&hits[i], 1)
			reply.Code = AccessAccept
			return true
		})}
		if err := srvs[i].ListenAndServe("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		defer srvs[i].Close()
		addrs = append(addrs, srvs[i].Addr().String())
	}
	pool := NewPool(addrs, secret, time.Second, 0)
	for i := 0; i < 6; i++ {
		resp, err := pool.Exchange(buildReq("u", "123456", secret))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Code != AccessAccept {
			t.Fatalf("code = %v", resp.Code)
		}
	}
	a, b := atomic.LoadInt32(&hits[0]), atomic.LoadInt32(&hits[1])
	if a != 3 || b != 3 {
		t.Fatalf("round robin distribution = %d/%d, want 3/3", a, b)
	}
}

func TestPoolFailover(t *testing.T) {
	secret := []byte("s")
	live := &Server{Secret: secret, Handler: HandlerFunc(func(reply *Packet, _ *Request) bool {
		reply.Code = AccessAccept
		return true
	})}
	if err := live.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer live.Close()

	// A dead address: bind then close so nothing answers.
	dead, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.LocalAddr().String()
	dead.Close()

	pool := NewPool([]string{deadAddr, live.Addr().String()}, secret, 100*time.Millisecond, 0)
	reg := obs.NewRegistry()
	pool.SetObs(reg)
	failovers := reg.Counter("radius_client_failover_total")
	resp, err := pool.Exchange(buildReq("u", "123456", secret))
	if err != nil {
		t.Fatalf("failover exchange failed: %v", err)
	}
	if resp.Code != AccessAccept {
		t.Fatalf("code = %v", resp.Code)
	}
	if got := failovers.Value(); got != 1 {
		t.Fatalf("failovers after the first exchange = %d, want 1", got)
	}
	// The dead server is now cooling down; the next exchange must go
	// straight to the live one without trying it again.
	if _, err := pool.Exchange(buildReq("u", "123456", secret)); err != nil {
		t.Fatal(err)
	}
	if got := failovers.Value(); got != 1 {
		t.Fatalf("failovers after the second exchange = %d, want 1: cooldown not honoured", got)
	}
}

func TestPoolAllDown(t *testing.T) {
	secret := []byte("s")
	dead, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	addr := dead.LocalAddr().String()
	dead.Close()
	pool := NewPool([]string{addr}, secret, 50*time.Millisecond, 0)
	if _, err := pool.Exchange(buildReq("u", "1", secret)); err == nil {
		t.Fatal("exchange against dead pool succeeded")
	}
	pool2 := NewPool(nil, secret, time.Second, 0)
	if _, err := pool2.Exchange(func(*Packet) {}); err != ErrAllDown {
		t.Fatalf("empty pool err = %v, want ErrAllDown", err)
	}
}

func TestProxyChaining(t *testing.T) {
	secret := []byte("inner")
	outerSecret := []byte("outer")
	// Terminal server.
	terminal, termAddr := startServer(t, secret)
	_ = terminal
	// Proxy in front of it.
	proxy := &Server{
		Secret: outerSecret,
		Handler: &Proxy{Upstream: &Client{
			Addr: termAddr, Secret: secret, Timeout: 2 * time.Second}},
	}
	if err := proxy.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	resp := exchange(t, proxy.Addr().String(), outerSecret, "u", "123456")
	if resp.Code != AccessAccept {
		t.Fatalf("via proxy: code = %v", resp.Code)
	}
	if _, ok := resp.Get(AttrProxyState); ok {
		t.Fatal("Proxy-State leaked to the NAS")
	}
	// Challenge flows must survive the proxy (State preserved).
	respC := exchange(t, proxy.Addr().String(), outerSecret, "u", "")
	if respC.Code != AccessChallenge {
		t.Fatalf("via proxy: code = %v, want challenge", respC.Code)
	}
	if s, ok := respC.Get(AttrState); !ok || string(s) != "challenge-1" {
		t.Fatalf("State through proxy = %q, %v", s, ok)
	}
}

func BenchmarkRoundTrip(b *testing.B) {
	secret := []byte("s")
	srv := &Server{Secret: secret, Handler: HandlerFunc(func(reply *Packet, _ *Request) bool {
		reply.Code = AccessAccept
		return true
	})}
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c := &Client{Addr: srv.Addr().String(), Secret: secret, Timeout: 2 * time.Second}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := NewRequest(0)
		req.AddString(AttrUserName, "u")
		if _, err := c.Exchange(req); err != nil {
			b.Fatal(err)
		}
	}
}

// TestUnsignedRequestDiscarded: an Access-Request without a valid
// Message-Authenticator gets no reply and never reaches the handler,
// whether the attribute is missing or carries the wrong value (the
// Blast-RADIUS precondition, CVE-2024-3596). Each discard is counted by
// reason.
func TestUnsignedRequestDiscarded(t *testing.T) {
	secret := []byte("s")
	reg := obs.NewRegistry()
	var calls int32
	srv := &Server{Secret: secret, Obs: reg, Handler: HandlerFunc(func(reply *Packet, _ *Request) bool {
		atomic.AddInt32(&calls, 1)
		reply.Code = AccessAccept
		return true
	})}
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("udp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	auth := [16]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	unsigned := wireOf(AccessRequest, 1, auth, tlv{AttrUserName, "u"})
	forged := wireOf(AccessRequest, 2, auth,
		tlv{AttrMessageAuthenticator, string(make([]byte, 16))}, tlv{AttrUserName, "u"})
	buf := make([]byte, MaxPacketLen)
	for _, wire := range [][]byte{unsigned, forged} {
		if _, err := conn.Write(wire); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		if n, err := conn.Read(buf); err == nil {
			t.Fatalf("request %x answered with %x", wire, buf[:n])
		}
	}
	if got := atomic.LoadInt32(&calls); got != 0 {
		t.Fatalf("handler ran %d times for unsigned requests", got)
	}
	for _, reason := range []string{"missing_message_authenticator", "bad_message_authenticator"} {
		if got := reg.Counter("radius_server_discards_total", "reason", reason).Value(); got != 1 {
			t.Errorf("radius_server_discards_total{reason=%q} = %d, want 1", reason, got)
		}
	}
}

// TestProxyStateBound: the server echoes every Proxy-State of a request
// it answers, so it discards, unanswered and before the duplicate cache,
// a signed Access-Request that carries more than maxProxyStates of them.
// One at the bound is answered with all of them echoed.
func TestProxyStateBound(t *testing.T) {
	secret := []byte("s")
	reg := obs.NewRegistry()
	var calls int32
	srv := &Server{Secret: secret, Obs: reg, Handler: HandlerFunc(func(reply *Packet, _ *Request) bool {
		atomic.AddInt32(&calls, 1)
		reply.Code = AccessAccept
		return true
	})}
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := &Client{Addr: srv.Addr().String(), Secret: secret, Timeout: 200 * time.Millisecond, Retries: NoRetry}
	defer c.Close()
	withProxyStates := func(n int) *Packet {
		req := NewRequest(0)
		req.AddString(AttrUserName, "u")
		for i := 0; i < n; i++ {
			req.Add(AttrProxyState, []byte{byte(i)})
		}
		return req
	}

	resp, err := c.Exchange(withProxyStates(maxProxyStates))
	if err != nil {
		t.Fatalf("%d Proxy-States: %v", maxProxyStates, err)
	}
	echoed := 0
	resp.Range(func(typ byte, _ []byte) bool {
		if typ == AttrProxyState {
			echoed++
		}
		return true
	})
	if echoed != maxProxyStates {
		t.Errorf("%d Proxy-States echoed, want %d", echoed, maxProxyStates)
	}

	if _, err := c.Exchange(withProxyStates(maxProxyStates + 1)); err != ErrTimeout {
		t.Fatalf("%d Proxy-States: err = %v, want ErrTimeout (no reply)", maxProxyStates+1, err)
	}
	if got := atomic.LoadInt32(&calls); got != 1 {
		t.Errorf("handler ran %d times, want 1", got)
	}
	if got := reg.Counter("radius_server_discards_total", "reason", "too_many_proxy_state").Value(); got != 1 {
		t.Errorf(`radius_server_discards_total{reason="too_many_proxy_state"} = %d, want 1`, got)
	}
}

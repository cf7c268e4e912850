package radius

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"openmfa/internal/leakcheck"
)

// maxIdle is the bound syncutil.Workers keeps on idle workers.
const maxIdle = 2

// signedRequest is the wire image of an Access-Request for user with a
// Message-Authenticator, as a NAS sends it.
func signedRequest(t *testing.T, user string, secret []byte) []byte {
	t.Helper()
	req := NewRequest(0)
	buildReq(user, "123456", secret)(req)
	if err := AddMessageAuthenticator(req, secret); err != nil {
		t.Fatal(err)
	}
	wire, err := req.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

func dialServer(t *testing.T, srv *Server) net.Conn {
	t.Helper()
	conn, err := net.Dial("udp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// TestParkedHandlerDoesNotDelayFreshRequest: while the handler is parked
// on user A's request (an fsync, an SMS), A's retransmission waits for
// A's reply and a fresh request for user B is answered at once. Once A's
// handler returns, both copies of A's request get its one reply.
func TestParkedHandlerDoesNotDelayFreshRequest(t *testing.T) {
	leakcheck.Check(t)
	secret := []byte("worker-secret")
	parked := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	unpark := func() { once.Do(func() { close(release) }) }
	var handledA atomic.Int32
	srv := &Server{Secret: secret, Handler: HandlerFunc(func(reply *Packet, req *Request) bool {
		if req.Username() == "a" {
			handledA.Add(1)
			close(parked)
			<-release
		}
		reply.Code = AccessAccept
		return true
	})}
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	defer unpark()

	connA, connB := dialServer(t, srv), dialServer(t, srv)
	wireA := signedRequest(t, "a", secret)
	if _, err := connA.Write(wireA); err != nil {
		t.Fatal(err)
	}
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("A's request never reached the handler")
	}
	if _, err := connA.Write(wireA); err != nil { // the NAS retransmits
		t.Fatal(err)
	}
	if _, err := connB.Write(signedRequest(t, "b", secret)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, MaxPacketLen)
	connB.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := connB.Read(buf)
	if err != nil {
		t.Fatalf("B's request waited on A's parked handler: %v", err)
	}
	if resp, err := Decode(buf[:n]); err != nil || resp.Code != AccessAccept {
		t.Fatalf("B's reply: %v, %v", resp, err)
	}
	connA.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if _, err := connA.Read(buf); err == nil {
		t.Fatal("A was answered before its handler returned")
	}

	unpark()
	var replies [][]byte
	for len(replies) < 2 {
		connA.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, err := connA.Read(buf)
		if err != nil {
			t.Fatalf("A got %d of 2 replies: %v", len(replies), err)
		}
		replies = append(replies, append([]byte(nil), buf[:n]...))
	}
	if !bytes.Equal(replies[0], replies[1]) {
		t.Fatal("the retransmission was answered with a different reply")
	}
	if resp, err := Decode(replies[0]); err != nil || resp.Code != AccessAccept {
		t.Fatalf("A's reply: %v, %v", resp, err)
	}
	if n := handledA.Load(); n != 1 {
		t.Fatalf("A's handler ran %d times, want 1", n)
	}
}

// TestWorkersReturnToIdleBoundAfterBurst: a burst of concurrent requests,
// each held in the handler for a while, grows the workers with it, and
// once it is over the server keeps at most maxIdle of them.
func TestWorkersReturnToIdleBoundAfterBurst(t *testing.T) {
	leakcheck.Check(t)
	const burst = 16
	secret := []byte("burst-secret")
	var inFlight, peak atomic.Int32
	srv := &Server{Secret: secret, Handler: HandlerFunc(func(reply *Packet, req *Request) bool {
		n := inFlight.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(20 * time.Millisecond)
		inFlight.Add(-1)
		reply.Code = AccessAccept
		return true
	})}
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	base := leakcheck.Count() // the server's one worker

	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &Client{Addr: srv.Addr().String(), Secret: secret, Timeout: 5 * time.Second}
			defer c.Close()
			req := NewRequest(0)
			buildReq(fmt.Sprintf("u%02d", i), "123456", secret)(req)
			if resp, err := c.Exchange(req); err != nil || resp.Code != AccessAccept {
				t.Errorf("u%02d: %v, %v", i, resp, err)
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p <= maxIdle {
		t.Fatalf("at most %d requests in the handler at once: the burst never outgrew the idle bound", p)
	}
	deadline := time.Now().Add(5 * time.Second)
	for n := leakcheck.Count(); n > base-1+maxIdle; n = leakcheck.Count() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the burst, baseline %d: idle workers are not bounded", n, base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

package radius

import (
	"errors"
	"net"
	"reflect"
	"testing"
	"time"

	"openmfa/internal/racecheck"
)

func skipUnderRace(t *testing.T) {
	t.Helper()
	if racecheck.Enabled {
		t.Skip("alloc-count assertions are meaningless under -race")
	}
}

func sampleRequest() *Packet {
	req := NewRequest(7)
	req.AddString(AttrUserName, "alice")
	req.AddString(AttrNASIdentifier, "login-node-3")
	hidden, err := HidePassword("123456", []byte("s3cret"), req.Authenticator)
	if err != nil {
		panic(err)
	}
	req.Add(AttrUserPassword, hidden)
	req.AddString(AttrProxyState, "tr-0123456789abcdef")
	return req
}

// TestAppendEncodeZeroAlloc gates the codec's encode half: serialising into
// a buffer with capacity must not allocate.
func TestAppendEncodeZeroAlloc(t *testing.T) {
	skipUnderRace(t)
	req := sampleRequest()
	buf := make([]byte, 0, MaxPacketLen)
	got := testing.AllocsPerRun(500, func() {
		if _, err := req.AppendEncode(buf); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Errorf("AppendEncode allocs/op = %.1f, want 0", got)
	}
}

// TestDecodeFromZeroAlloc gates the decode half: parsing into a reused
// Packet must not allocate once its buffers reach the traffic size.
func TestDecodeFromZeroAlloc(t *testing.T) {
	skipUnderRace(t)
	wire, err := sampleRequest().Encode()
	if err != nil {
		t.Fatal(err)
	}
	var p Packet
	if err := p.DecodeFrom(wire); err != nil { // warm the buffers
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(500, func() {
		if err := p.DecodeFrom(wire); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Errorf("DecodeFrom allocs/op = %.1f, want 0", got)
	}
}

// TestMessageAuthenticatorAllocs gates the Message-Authenticator at its
// steady-state cost: verifying and filling the reserved slot allocate
// nothing, for secrets inside and beyond the 64-byte HMAC block.
func TestMessageAuthenticatorAllocs(t *testing.T) {
	skipUnderRace(t)
	for _, secret := range [][]byte{[]byte("s3cret"), make([]byte, 200)} {
		req := sampleRequest()
		if err := AddMessageAuthenticator(req, secret); err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(500, func() {
			if !VerifyMessageAuthenticator(req, secret) {
				t.Fatal("verify failed")
			}
		}); got != 0 {
			t.Errorf("%d-byte secret: VerifyMessageAuthenticator allocs/op = %.1f, want 0", len(secret), got)
		}
		if got := testing.AllocsPerRun(500, func() {
			if err := AddMessageAuthenticator(req, secret); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("%d-byte secret: AddMessageAuthenticator allocs/op = %.1f, want 0", len(secret), got)
		}
	}
}

// TestDedupReserveFinishZeroAlloc gates the duplicate table's first-seen
// path: once the ring and index have reached their steady size, reserving
// and finishing a fresh request (expiring one old one) allocates nothing.
func TestDedupReserveFinishZeroAlloc(t *testing.T) {
	skipUnderRace(t)
	const live = 1024
	now := time.Unix(1000, 0)
	tab := newDedupTable(5*time.Second, maxDedupEntries, func() time.Time { return now })
	i := 0
	op := func() {
		seq, _ := tab.reserve(seqKey(i))
		tab.finish(seq, nil)
		i++
		now = now.Add(5 * time.Second / live)
	}
	for i < 8*live {
		op()
	}
	if got := testing.AllocsPerRun(4*live, op); got != 0 {
		t.Errorf("reserve+finish allocs/op = %.1f, want 0", got)
	}
}

// TestDedupKeyOfUDPZeroAlloc gates key derivation from a UDP source.
func TestDedupKeyOfUDPZeroAlloc(t *testing.T) {
	skipUnderRace(t)
	var src net.Addr = &net.UDPAddr{IP: net.IPv4(10, 1, 2, 3), Port: 1812}
	var auth [16]byte
	var k dedupKey
	got := testing.AllocsPerRun(500, func() { k = dedupKeyOf(src, 7, auth) })
	if got != 0 {
		t.Errorf("dedupKeyOf(*net.UDPAddr) allocs/op = %.1f, want 0", got)
	}
	if k.port != 1812 {
		t.Fatalf("port = %d", k.port)
	}
}

// TestDecodeFromMatchesDecode pins the reusing decoder to the allocating
// reference, including reuse across packets of different shapes.
func TestDecodeFromMatchesDecode(t *testing.T) {
	big := &Packet{Code: AccessAccept, Identifier: 9}
	for i := 0; i < 20; i++ {
		big.AddString(AttrReplyMessage, "line with some text in it")
	}
	small := &Packet{Code: AccessReject, Identifier: 1}
	small.AddString(AttrReplyMessage, "no")
	var reused Packet
	for _, src := range []*Packet{big, small, big, sampleRequest(), small} {
		wire, err := src.Encode()
		if err != nil {
			t.Fatal(err)
		}
		want, err := Decode(wire)
		if err != nil {
			t.Fatal(err)
		}
		if err := reused.DecodeFrom(wire); err != nil {
			t.Fatal(err)
		}
		if reused.Code != want.Code || reused.Identifier != want.Identifier ||
			reused.Authenticator != want.Authenticator {
			t.Fatalf("header mismatch: %+v vs %+v", reused, want)
		}
		if got, want := attrsOf(&reused), attrsOf(want); !reflect.DeepEqual(got, want) {
			t.Fatalf("attributes %q, want %q", got, want)
		}
	}
}

// TestEmptySecretRejected is the regression test for the degenerate
// RFC 2865 keystream: an empty shared secret must be refused at password
// hiding, revealing, server startup, and client configuration.
func TestEmptySecretRejected(t *testing.T) {
	var auth [16]byte
	if _, err := HidePassword("pw", nil, auth); !errors.Is(err, ErrEmptySecret) {
		t.Errorf("HidePassword(nil secret) err = %v, want ErrEmptySecret", err)
	}
	if _, err := HidePassword("pw", []byte{}, auth); !errors.Is(err, ErrEmptySecret) {
		t.Errorf("HidePassword(empty secret) err = %v, want ErrEmptySecret", err)
	}
	if _, err := RevealPassword(make([]byte, 16), nil, auth); !errors.Is(err, ErrEmptySecret) {
		t.Errorf("RevealPassword(nil secret) err = %v, want ErrEmptySecret", err)
	}

	srv := &Server{Handler: HandlerFunc(func(*Packet, *Request) bool { return false })}
	if err := srv.ListenAndServe("127.0.0.1:0"); !errors.Is(err, ErrEmptySecret) {
		t.Errorf("secretless ListenAndServe err = %v, want ErrEmptySecret", err)
		srv.Close()
	}

	c := &Client{Addr: "127.0.0.1:1"}
	if _, err := c.Exchange(NewRequest(0)); !errors.Is(err, ErrConfig) {
		t.Errorf("secretless Exchange err = %v, want ErrConfig", err)
	}
}

// TestHidePasswordRoundTripLongSecret exercises the scratch-buffer path for
// secrets too large for the stack block.
func TestHidePasswordRoundTripLongSecret(t *testing.T) {
	secret := make([]byte, 100)
	for i := range secret {
		secret[i] = byte(i * 7)
	}
	var auth [16]byte
	copy(auth[:], "abcdefghijklmnop")
	for _, pw := range []string{"", "x", "123456", string(make([]byte, 128))} {
		hidden, err := HidePassword(pw, secret, auth)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RevealPassword(hidden, secret, auth)
		if err != nil {
			t.Fatal(err)
		}
		// NUL padding is trimmed on reveal, so an all-NUL password reads
		// back empty — that matches the previous implementation.
		want := pw
		for len(want) > 0 && want[len(want)-1] == 0 {
			want = want[:len(want)-1]
		}
		if got != want {
			t.Errorf("round trip %q: got %q", pw, got)
		}
	}
}

// loopConn joins a Client and a Server with no socket and no goroutine
// between them: as the client's net.Conn, Write hands each datagram to the
// server's handle on the calling goroutine; as the server's
// net.PacketConn, WriteTo keeps the reply for the client's next Read.
type loopConn struct {
	srv   *Server
	reply [MaxPacketLen]byte
	n     int
}

var loopAddr = &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 1812}

func (c *loopConn) Write(b []byte) (int, error) {
	d := datagrams.Get().(*datagram)
	defer releaseDatagram(d)
	c.srv.handle(c, d, copy(d.in.buf[:], b), loopAddr)
	return len(b), nil
}

func (c *loopConn) WriteTo(b []byte, _ net.Addr) (int, error) {
	c.n = copy(c.reply[:], b)
	return len(b), nil
}

func (c *loopConn) Read(b []byte) (int, error)             { return copy(b, c.reply[:c.n]), nil }
func (c *loopConn) ReadFrom([]byte) (int, net.Addr, error) { return 0, nil, net.ErrClosed }
func (c *loopConn) Close() error                           { return nil }
func (c *loopConn) LocalAddr() net.Addr                    { return loopAddr }
func (c *loopConn) RemoteAddr() net.Addr                   { return loopAddr }
func (c *loopConn) SetDeadline(time.Time) error            { return nil }
func (c *loopConn) SetReadDeadline(time.Time) error        { return nil }
func (c *loopConn) SetWriteDeadline(time.Time) error       { return nil }

// Ceilings of TestExchangeAllocs, the counts measured when it was written.
const (
	// None: ExchangeRead reads the reply in place. (Exchange's copy of it
	// would add its Packet and its bytes.)
	maxClientExchangeAllocs = 0
	// The trace ID and the user name as strings, the revealed password,
	// and the duplicate cache's copy of the reply.
	maxServerExchangeAllocs = 4
)

// TestExchangeAllocs gates the RADIUS hop's allocations per exchange, client
// and server apart: one Pool.ExchangeRead of a login's request (User-Name,
// hidden password, trace ID in Proxy-State) against an in-process Server
// whose fixed handler reads the user and password and accepts. The
// socket reads and the server's per-datagram goroutine are left out
// (loopConn); TestLoginAllocsRatchet counts them with the rest of a login.
func TestExchangeAllocs(t *testing.T) {
	skipUnderRace(t)
	secret := []byte("s3cret")
	now := time.Unix(1000, 0)
	srv := &Server{Secret: secret, Handler: HandlerFunc(func(reply *Packet, req *Request) bool {
		if pw, err := req.Password(); err != nil || pw != "123456" || req.Username() != "alice" {
			t.Errorf("handler saw %q, %q, %v", req.Username(), pw, err)
		}
		reply.Code = AccessAccept
		reply.AddString(AttrReplyMessage, "ok")
		return true
	})}
	// One reservation expires per exchange, so the cache holds steady.
	srv.dedup = newDedupTable(dedupWindow, maxDedupEntries, func() time.Time {
		now = now.Add(dedupWindow)
		return now
	})
	conn := &loopConn{srv: srv}
	pool := NewPool([]string{"loop"}, secret, time.Second, NoRetry)
	pool.SetDial(func(string, string) (net.Conn, error) { return conn, nil })
	build := func(req *Packet) {
		req.AddString(AttrUserName, "alice")
		req.AddPassword("123456", secret)
		req.AddString(AttrProxyState, "0123456789abcdef")
	}
	exchange := func() {
		var code Code
		err := pool.ExchangeRead(build, func(resp *Packet) { code = resp.Code })
		if err != nil || code != AccessAccept {
			t.Fatalf("exchange: %v, %v", code, err)
		}
	}
	// The server alone: a request sealed in pooled scratch as the client
	// seals it (no allocation), then handled.
	client := &Client{Secret: secret}
	scratch := getPacketBuf()
	defer packetBufs.Put(scratch)
	serve := func() {
		req := &scratch.pkt
		req.startRequest(0, scratch.buf[:0])
		build(req)
		wire, err := client.seal(req)
		if err != nil {
			t.Fatal(err)
		}
		conn.Write(wire)
	}
	exchange()
	serve()
	total := testing.AllocsPerRun(500, exchange)
	server := testing.AllocsPerRun(500, serve)
	t.Logf("allocs per exchange: client %.0f, server %.0f", total-server, server)
	if total-server > maxClientExchangeAllocs {
		t.Errorf("client allocs per exchange = %.0f, ceiling %d", total-server, maxClientExchangeAllocs)
	}
	if server > maxServerExchangeAllocs {
		t.Errorf("server allocs per exchange = %.0f, ceiling %d", server, maxServerExchangeAllocs)
	}
}

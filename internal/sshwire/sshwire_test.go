package sshwire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

func pair(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	a, b := net.Pipe()
	return NewConn(a), NewConn(b)
}

func TestSendRecvRoundTrip(t *testing.T) {
	client, server := pair(t)
	defer client.Close()
	defer server.Close()

	go func() {
		client.Send(&Msg{T: THello, User: "alice", TTY: true, Shell: "/bin/bash"})
	}()
	m, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.T != THello || m.User != "alice" || !m.TTY || m.Shell != "/bin/bash" {
		t.Fatalf("got %+v", m)
	}
}

func TestBinaryFieldsRoundTrip(t *testing.T) {
	client, server := pair(t)
	defer client.Close()
	defer server.Close()
	nonce := []byte{0, 1, 2, 255, 254, 10, 13}
	go func() {
		server.Send(&Msg{T: TNonce, Nonce: nonce, Banner: "hi\nthere"})
	}()
	m, err := client.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(m.Nonce) != string(nonce) {
		t.Fatalf("nonce = %v", m.Nonce)
	}
	if m.Banner != "hi\nthere" {
		t.Fatalf("banner = %q", m.Banner)
	}
}

func TestRecvOnClosedConn(t *testing.T) {
	client, server := pair(t)
	server.Close()
	if _, err := client.Recv(); err == nil || !strings.Contains(err.Error(), "connection closed") {
		t.Fatalf("Recv on closed peer: err = %v, want connection closed", err)
	}
}

// memConn is an in-memory net.Conn: Read serves in and then io.EOF (or
// readErr when set), Write appends to out and counts calls. Only Read,
// Write and Close are implemented.
type memConn struct {
	net.Conn
	in, out []byte
	readErr error
	writes  int
}

func (c *memConn) Read(p []byte) (int, error) {
	if len(c.in) == 0 {
		if c.readErr != nil {
			return 0, c.readErr
		}
		return 0, io.EOF
	}
	n := copy(p, c.in)
	c.in = c.in[n:]
	return n, nil
}

func (c *memConn) Write(p []byte) (int, error) {
	c.writes++
	c.out = append(c.out, p...)
	return len(p), nil
}

func (c *memConn) Close() error { return nil }

// frame prefixes body with the 4-byte big-endian length that declares it.
func frame(body ...byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

func TestRecvMalformedFrame(t *testing.T) {
	hello := []byte{tagT, 5, 'h', 'e', 'l', 'l', 'o'}
	withHello := func(rest ...byte) []byte { return frame(slices.Concat(hello, rest)...) }
	for _, tc := range []struct {
		name string
		wire []byte
	}{
		{"truncated body", frame(hello...)[:6]},
		{"length overrun", frame(tagT, 50, 'h', 'e', 'l', 'l', 'o')},
		{"unknown tag", withHello(tagOut + 1)},
		{"no T", frame(tagUser, 5, 'a', 'l', 'i', 'c', 'e')},
		{"garbage after valid header", frame([]byte("this is not a frame\n")...)},
		{"repeated tag", withHello(tagOK, tagOK)},
		{"tags out of order", withHello(tagOK, tagTTY)},
		{"empty field", withHello(tagUser, 0)},
		{"non-minimal length", frame(tagT, 0x85, 0x00, 'h', 'e', 'l', 'l', 'o')},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var m Msg
			err := NewConn(&memConn{in: tc.wire}).RecvInto(&m)
			if err == nil || !strings.Contains(err.Error(), "decode") {
				t.Fatalf("err = %v, want a decode error", err)
			}
		})
	}
}

func TestSequencedConversation(t *testing.T) {
	client, server := pair(t)
	defer client.Close()
	defer server.Close()
	done := make(chan error, 1)
	go func() {
		// Server side: prompt, read answer, send result.
		if err := server.Send(&Msg{T: TPrompt, Msg: "Token Code: ", Echo: false}); err != nil {
			done <- err
			return
		}
		m, err := server.Recv()
		if err != nil {
			done <- err
			return
		}
		if m.T != TAnswer || m.Value != "123456" {
			done <- fmt.Errorf("bad answer %+v", m)
			return
		}
		done <- server.Send(&Msg{T: TResult, OK: true, Msg: "welcome"})
	}()
	m, err := client.Recv()
	if err != nil || m.T != TPrompt || m.Echo {
		t.Fatalf("prompt = %+v, %v", m, err)
	}
	if err := client.Send(&Msg{T: TAnswer, Value: "123456"}); err != nil {
		t.Fatal(err)
	}
	m, err = client.Recv()
	if err != nil || m.T != TResult || !m.OK {
		t.Fatalf("result = %+v, %v", m, err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestRecvIntoResetsBetweenFrames pins the reuse contract: a field set by
// one frame must not leak into the next frame decoded into the same Msg
// (empty fields are absent from the wire, so without the reset a stale
// User/Nonce would survive).
func TestRecvIntoResetsBetweenFrames(t *testing.T) {
	client, server := pair(t)
	defer client.Close()
	defer server.Close()

	go func() {
		client.Send(&Msg{T: THello, User: "alice", TTY: true, Nonce: []byte{1, 2}})
		client.Send(&Msg{T: TBye})
	}()
	var m Msg
	if err := server.RecvInto(&m); err != nil {
		t.Fatal(err)
	}
	if m.T != THello || m.User != "alice" || !m.TTY {
		t.Fatalf("first frame = %+v", m)
	}
	if err := server.RecvInto(&m); err != nil {
		t.Fatal(err)
	}
	if m.T != TBye || m.User != "" || m.TTY || m.Nonce != nil {
		t.Fatalf("second frame kept stale fields: %+v", m)
	}
}

// TestLargeFrameRoundTrips sends a frame far larger than NewConn's initial
// buffers, so both sides must grow them.
func TestLargeFrameRoundTrips(t *testing.T) {
	client, server := pair(t)
	defer client.Close()
	defer server.Close()
	banner := strings.Repeat("hpc-login ", 64*1024/10)
	go server.Send(&Msg{T: TNonce, Banner: banner})
	m, err := client.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Banner != banner {
		t.Fatalf("banner: got %d bytes, want %d", len(m.Banner), len(banner))
	}
}

// TestOversizeFrameFails pins the 1 MiB frame cap on both sides: a header
// declaring a longer body is refused before any body byte is read (none
// follows here, so reading on would report a truncated frame instead), and
// Send refuses to write such a frame at all.
func TestOversizeFrameFails(t *testing.T) {
	var m Msg
	hdr := binary.BigEndian.AppendUint32(nil, maxFrame+1)
	if err := NewConn(&memConn{in: hdr}).RecvInto(&m); err == nil || !strings.Contains(err.Error(), "too long") {
		t.Fatalf("recv err = %v, want too long", err)
	}
	mc := &memConn{}
	err := NewConn(mc).Send(&Msg{T: TNonce, Banner: strings.Repeat("x", maxFrame)})
	if err == nil || !strings.Contains(err.Error(), "too long") {
		t.Fatalf("send err = %v, want too long", err)
	}
	if mc.writes != 0 {
		t.Fatalf("oversize Send made %d writes, want 0", mc.writes)
	}
}

// TestDeclaredLengthIsNotAllocated pins that the read buffer follows the
// bytes a peer sent, not the length it declared: a pre-auth client that
// sends one 4-byte header for a 1 MiB body and stalls must not pin 1 MiB.
func TestDeclaredLengthIsNotAllocated(t *testing.T) {
	mc := &memConn{in: binary.BigEndian.AppendUint32(nil, maxFrame), readErr: os.ErrDeadlineExceeded}
	conn := NewConn(mc)
	var m Msg
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := conn.RecvInto(&m)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want the stalled read's deadline error", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 8192 {
		t.Fatalf("a 4-byte header declaring %d bytes allocated %d B, want ≤ 8192", maxFrame, got)
	}
}

// TestNewConnAllocatesLittle gates the per-connection cost: every login
// opens a Conn on each side, and its frames are a few hundred bytes.
func TestNewConnAllocatesLittle(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	const n = 100
	conns := make([]*Conn, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range conns {
		conns[i] = NewConn(a)
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / n; got > 1024 {
		t.Fatalf("NewConn allocates %d B, want ≤ 1024", got)
	}
}

package sshwire

import (
	"fmt"
	"net"
	"runtime"
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

func TestBinaryFieldsSurviveJSON(t *testing.T) {
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
	if _, err := client.Recv(); err == nil {
		t.Fatal("Recv on closed peer succeeded")
	}
}

func TestRecvMalformedFrame(t *testing.T) {
	a, b := net.Pipe()
	conn := NewConn(b)
	defer conn.Close()
	go func() {
		a.Write([]byte("this is not json\n"))
		a.Close()
	}()
	if _, err := conn.Recv(); err == nil || !strings.Contains(err.Error(), "decode") {
		t.Fatalf("err = %v", err)
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
// (omitempty fields are absent from the wire, so without the reset a
// stale User/Nonce would survive).
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
// buffer, so the scanner must grow it.
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

// TestOversizeFrameFails pins the 1 MiB frame cap: a longer line is an
// error, not a hang or a truncated frame.
func TestOversizeFrameFails(t *testing.T) {
	a, b := net.Pipe()
	conn := NewConn(b)
	defer conn.Close()
	go func() {
		defer a.Close()
		frame := append([]byte(`{"t":"nonce","banner":"`), strings.Repeat("x", 1024*1024)...)
		a.Write(append(frame, "\"}\n"...))
	}()
	var m Msg
	if err := conn.RecvInto(&m); err == nil || !strings.Contains(err.Error(), "too long") {
		t.Fatalf("err = %v, want token too long", err)
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

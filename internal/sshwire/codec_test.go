package sshwire

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"openmfa/internal/racecheck"
)

// loginFrames are the nine frames of a password + TOTP login without a
// key, in wire order.
func loginFrames() []struct {
	name string
	m    Msg
} {
	nonce := bytes.Repeat([]byte{0xA5}, 32)
	return []struct {
		name string
		m    Msg
	}{
		{"hello", Msg{T: THello, User: "alice", TTY: true, Shell: "/bin/bash"}},
		{"nonce", Msg{T: TNonce, Nonce: nonce, Banner: "TACC login node"}},
		{"ready", Msg{T: TAnswer}},
		{"password prompt", Msg{T: TPrompt, Msg: "Password: "}},
		{"password answer", Msg{T: TAnswer, Value: "correct horse"}},
		{"token prompt", Msg{T: TPrompt, Msg: "TACC Token Code: "}},
		{"token answer", Msg{T: TAnswer, Value: "123456"}},
		{"result", Msg{T: TResult, OK: true, Msg: "welcome"}},
		{"bye", Msg{T: TBye}},
	}
}

// allocatedFields counts the fields RecvInto must copy out of the read
// buffer: every non-empty string or byte field except T, which is interned.
func allocatedFields(m *Msg) int {
	n := 0
	for _, empty := range []bool{
		m.User == "", m.Shell == "", len(m.Nonce) == 0, m.Banner == "", len(m.Pub) == 0,
		len(m.Sig) == 0, m.Msg == "", m.Value == "", m.Cmd == "", m.Out == "",
	} {
		if !empty {
			n++
		}
	}
	return n
}

// TestCodecAllocs gates the codec per login frame: Send makes one Write and
// no allocation (the Msg a caller passes stays on its stack), and RecvInto
// allocates once per string or byte field it returns and never for T.
func TestCodecAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("alloc-count assertions are meaningless under -race")
	}
	for _, tc := range loginFrames() {
		t.Run(tc.name, func(t *testing.T) {
			mc := &memConn{}
			c := NewConn(mc)
			if err := c.Send(&tc.m); err != nil {
				t.Fatal(err)
			}
			if mc.writes != 1 {
				t.Fatalf("Send made %d writes, want 1", mc.writes)
			}
			wire := bytes.Clone(mc.out)
			send := testing.AllocsPerRun(100, func() {
				mc.out = mc.out[:0]
				m := tc.m // a fresh local: it must not escape through Send
				if err := c.Send(&m); err != nil {
					t.Fatal(err)
				}
			})
			if send != 0 {
				t.Errorf("Send allocs/op = %.1f, want 0", send)
			}

			var m Msg
			recv := testing.AllocsPerRun(100, func() {
				mc.in = wire
				if err := c.RecvInto(&m); err != nil {
					t.Fatal(err)
				}
			})
			if want := allocatedFields(&tc.m); recv > float64(want) {
				t.Errorf("RecvInto allocs/op = %.1f, want ≤ %d", recv, want)
			}
			if !reflect.DeepEqual(m, tc.m) {
				t.Errorf("round trip: got %+v, want %+v", m, tc.m)
			}
		})
	}
}

// FuzzDecode throws arbitrary bytes at the one pre-auth parser sshd runs
// on every connection. Any input decodes or errors without panicking; a
// declared length over 1 MiB is refused; and what decodes is canonical: it
// re-encodes to exactly the frame it came from, which decodes to an equal
// Msg.
func FuzzDecode(f *testing.F) {
	for _, tc := range loginFrames() {
		mc := &memConn{}
		if err := NewConn(mc).Send(&tc.m); err != nil {
			f.Fatal(err)
		}
		f.Add(mc.out)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Msg
		err := NewConn(&memConn{in: data}).RecvInto(&m)
		if len(data) >= 4 && binary.BigEndian.Uint32(data) > maxFrame {
			if err == nil || !strings.Contains(err.Error(), "too long") {
				t.Fatalf("declared length %d: err = %v, want too long", binary.BigEndian.Uint32(data), err)
			}
			return
		}
		if err != nil {
			return
		}
		mc := &memConn{}
		if err := NewConn(mc).Send(&m); err != nil {
			t.Fatalf("re-encode %+v: %v", m, err)
		}
		if n := 4 + int(binary.BigEndian.Uint32(data)); !bytes.Equal(mc.out, data[:n]) {
			t.Fatalf("decode→encode not canonical:\n in  %x\n out %x", data[:n], mc.out)
		}
		var again Msg
		if err := NewConn(&memConn{in: mc.out}).RecvInto(&again); err != nil || !reflect.DeepEqual(again, m) {
			t.Fatalf("re-decode: got %+v, %v; want %+v", again, err, m)
		}
	})
}

package radius

import (
	"errors"
	"net"
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
// steady-state cost: verification allocates nothing and signing only the
// attribute value, for secrets inside and beyond the 64-byte HMAC block.
func TestMessageAuthenticatorAllocs(t *testing.T) {
	skipUnderRace(t)
	for _, secret := range [][]byte{[]byte("s3cret"), make([]byte, 200)} {
		req := sampleRequest()
		if err := AddMessageAuthenticator(req, secret); err != nil { // size the attribute slice
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
		}); got > 1 {
			t.Errorf("%d-byte secret: AddMessageAuthenticator allocs/op = %.1f, want ≤ 1", len(secret), got)
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
		if len(reused.Attributes) != len(want.Attributes) {
			t.Fatalf("attr count %d != %d", len(reused.Attributes), len(want.Attributes))
		}
		for i, a := range want.Attributes {
			if reused.Attributes[i].Type != a.Type || string(reused.Attributes[i].Value) != string(a.Value) {
				t.Fatalf("attr %d mismatch", i)
			}
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

	srv := &Server{Handler: HandlerFunc(func(*Request) *Packet { return nil })}
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

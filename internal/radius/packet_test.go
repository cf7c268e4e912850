package radius

import (
	"bytes"
	"crypto/hmac"
	"crypto/md5"
	"net"
	"reflect"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := NewRequest(7)
	p.AddString(AttrUserName, "cproctor")
	p.AddString(AttrNASIdentifier, "login1.stampede")
	p.Add(AttrState, []byte{1, 2, 3})
	wire, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Code != AccessRequest || got.Identifier != p.Identifier {
		t.Fatalf("header mismatch: %+v", got)
	}
	if got.Authenticator != p.Authenticator {
		t.Fatal("authenticator mismatch")
	}
	if got.GetString(AttrUserName) != "cproctor" {
		t.Fatalf("User-Name = %q", got.GetString(AttrUserName))
	}
	if s, _ := got.Get(AttrState); !bytes.Equal(s, []byte{1, 2, 3}) {
		t.Fatal("State mismatch")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode([]byte{1, 2, 3}); err != ErrPacketTooShort {
		t.Fatalf("short: %v", err)
	}
	// Length field smaller than header.
	bad := make([]byte, 20)
	bad[3] = 10
	if _, err := Decode(bad); err != ErrBadLength {
		t.Fatalf("bad length: %v", err)
	}
	// Length larger than datagram.
	bad2 := make([]byte, 20)
	bad2[2] = 0xff
	bad2[3] = 0xff
	if _, err := Decode(bad2); err != ErrBadLength {
		t.Fatalf("overlong: %v", err)
	}
	// Attribute with length < 2.
	p := NewRequest(1)
	wire, _ := p.Encode()
	wire = append(wire, 1, 1)
	wire[3] = byte(len(wire))
	if _, err := Decode(wire); err != ErrBadAttribute {
		t.Fatalf("bad attr: %v", err)
	}
	// Attribute overrunning the packet.
	p2 := NewRequest(1)
	wire2, _ := p2.Encode()
	wire2 = append(wire2, 1, 30, 'x')
	wire2[3] = byte(len(wire2))
	if _, err := Decode(wire2); err != ErrBadAttribute {
		t.Fatalf("overrun attr: %v", err)
	}
}

func TestEncodeAttrTooLong(t *testing.T) {
	p := NewRequest(1)
	p.Add(AttrReplyMessage, make([]byte, 254))
	if _, err := p.Encode(); err != ErrAttrTooLong {
		t.Fatalf("err = %v, want ErrAttrTooLong", err)
	}
}

// tlv is one attribute as a test compares it.
type tlv struct {
	typ byte
	val string
}

// attrsOf lists p's attributes in wire order.
func attrsOf(p *Packet) []tlv {
	var out []tlv
	p.Range(func(typ byte, v []byte) bool {
		out = append(out, tlv{typ, string(v)})
		return true
	})
	return out
}

// wireOf hand-builds a packet image from its header and attributes, so a
// test can place (or leave out) the Message-Authenticator anywhere.
func wireOf(code Code, id byte, auth [16]byte, attrs ...tlv) []byte {
	wire := append([]byte{byte(code), id, 0, 0}, auth[:]...)
	for _, a := range attrs {
		wire = append(append(wire, a.typ, byte(2+len(a.val))), a.val...)
	}
	wire[2], wire[3] = byte(len(wire)>>8), byte(len(wire))
	return wire
}

// TestRangeVisitsAttributesInOrder: a built packet lists the reserved
// Message-Authenticator first, then its attributes in the order they were
// added, repeats included; Range stops when fn returns false.
func TestRangeVisitsAttributesInOrder(t *testing.T) {
	p := NewRequest(1)
	p.AddString(AttrReplyMessage, "line 1")
	p.AddString(AttrUserName, "u")
	p.AddString(AttrReplyMessage, "line 2")
	want := []tlv{
		{AttrMessageAuthenticator, string(make([]byte, 16))},
		{AttrReplyMessage, "line 1"}, {AttrUserName, "u"}, {AttrReplyMessage, "line 2"},
	}
	if got := attrsOf(p); !reflect.DeepEqual(got, want) {
		t.Fatalf("Range = %q, want %q", got, want)
	}
	visited := 0
	p.Range(func(byte, []byte) bool { visited++; return visited < 2 })
	if visited != 2 {
		t.Fatalf("Range visited %d attributes after fn returned false at 2", visited)
	}
	if p.GetString(AttrReplyMessage) != "line 1" {
		t.Fatal("Get did not return the first of a repeated attribute")
	}
}

func TestHideRevealPassword(t *testing.T) {
	secret := []byte("s3cret")
	var auth [16]byte
	copy(auth[:], "0123456789abcdef")
	for _, pw := range []string{"", "123456", "a", "exactly-16-bytes", "this one is much longer than sixteen bytes"} {
		hidden, err := HidePassword(pw, secret, auth)
		if err != nil {
			t.Fatal(err)
		}
		if len(hidden)%16 != 0 || len(hidden) == 0 {
			t.Fatalf("hidden length %d not a positive multiple of 16", len(hidden))
		}
		got, err := RevealPassword(hidden, secret, auth)
		if err != nil {
			t.Fatal(err)
		}
		if got != pw {
			t.Fatalf("reveal = %q, want %q", got, pw)
		}
	}
}

func TestHidePasswordTooLong(t *testing.T) {
	if _, err := HidePassword(string(make([]byte, 129)), []byte("s"), [16]byte{}); err == nil {
		t.Fatal("129-byte password accepted")
	}
}

func TestRevealPasswordBadLength(t *testing.T) {
	for _, n := range []int{0, 1, 15, 17, 144} {
		if _, err := RevealPassword(make([]byte, n), []byte("s"), [16]byte{}); err == nil {
			t.Errorf("length %d accepted", n)
		}
	}
}

func TestRevealWithWrongSecretGarbles(t *testing.T) {
	var auth [16]byte
	hidden, _ := HidePassword("123456", []byte("right"), auth)
	got, err := RevealPassword(hidden, []byte("wrong"), auth)
	if err == nil && got == "123456" {
		t.Fatal("wrong secret revealed the password")
	}
}

func TestResponseAuthenticatorVerify(t *testing.T) {
	secret := []byte("shared")
	req := NewRequest(9)
	req.AddString(AttrUserName, "u")
	resp := &Packet{Code: AccessAccept, Identifier: 9}
	resp.AddString(AttrReplyMessage, "welcome")
	if err := SignResponse(resp, req.Authenticator, secret); err != nil {
		t.Fatal(err)
	}
	if !VerifyResponse(resp, req.Authenticator, secret) {
		t.Fatal("signed response failed verification")
	}
	// Tampering with an attribute must break verification.
	msg, _ := resp.Get(AttrReplyMessage)
	msg[0] ^= 1
	if VerifyResponse(resp, req.Authenticator, secret) {
		t.Fatal("tampered response verified")
	}
	msg[0] ^= 1
	// Wrong secret must fail.
	if VerifyResponse(resp, req.Authenticator, []byte("other")) {
		t.Fatal("response verified under wrong secret")
	}
}

func TestMessageAuthenticator(t *testing.T) {
	secret := []byte("shared")
	p := NewRequest(3)
	p.AddString(AttrUserName, "storm")
	if err := AddMessageAuthenticator(p, secret); err != nil {
		t.Fatal(err)
	}
	if !VerifyMessageAuthenticator(p, secret) {
		t.Fatal("fresh MA failed verification")
	}
	// Round-trip through the wire.
	wire, _ := p.Encode()
	got, _ := Decode(wire)
	if !VerifyMessageAuthenticator(got, secret) {
		t.Fatal("decoded MA failed verification")
	}
	// Tamper.
	name, _ := got.Get(AttrUserName)
	name[0] ^= 1
	if VerifyMessageAuthenticator(got, secret) {
		t.Fatal("tampered packet verified")
	}
	// Wrong secret.
	name[0] ^= 1
	if VerifyMessageAuthenticator(got, []byte("wrong")) {
		t.Fatal("wrong secret verified")
	}
	// An absent MA fails: it is mandatory.
	bare, err := Decode(wireOf(AccessRequest, 4, p.Authenticator, tlv{AttrUserName, "storm"}))
	if err != nil {
		t.Fatal(err)
	}
	if VerifyMessageAuthenticator(bare, secret) {
		t.Fatal("packet without MA verified")
	}
	// Malformed MA length fails.
	short, err := Decode(wireOf(AccessRequest, 5, p.Authenticator, tlv{AttrMessageAuthenticator, "abc"}))
	if err != nil {
		t.Fatal(err)
	}
	if VerifyMessageAuthenticator(short, secret) {
		t.Fatal("short MA verified")
	}
	// A received MA verifies wherever it sits, not only first.
	last := wireOf(AccessRequest, 6, p.Authenticator,
		tlv{AttrUserName, "storm"}, tlv{AttrMessageAuthenticator, string(make([]byte, 16))})
	mac := hmac.New(md5.New, secret)
	mac.Write(last)
	copy(last[len(last)-16:], mac.Sum(nil))
	lastPkt, err := Decode(last)
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyMessageAuthenticator(lastPkt, secret) {
		t.Fatal("MA in last position failed verification")
	}
}

// refMessageAuthenticator is the RFC 2869 §5.14 reference: crypto/hmac's
// HMAC-MD5 keyed by secret over p's wire image with every
// Message-Authenticator value zeroed.
func refMessageAuthenticator(t testing.TB, p *Packet, secret []byte) []byte {
	t.Helper()
	wire, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return refHMAC(wire, nil, secret)
}

// refHMAC is crypto/hmac's HMAC-MD5 keyed by secret over a copy of wire
// with every Message-Authenticator value zeroed and, when reqAuth is set,
// the request authenticator in the header (a reply's MA covers it).
func refHMAC(wire []byte, reqAuth *[16]byte, secret []byte) []byte {
	wire = bytes.Clone(wire)
	if reqAuth != nil {
		copy(wire[4:20], reqAuth[:])
	}
	for off := headerLen; off < len(wire); off += int(wire[off+1]) {
		if wire[off] == AttrMessageAuthenticator {
			clear(wire[off+2 : off+int(wire[off+1])])
		}
	}
	mac := hmac.New(md5.New, secret)
	mac.Write(wire)
	return mac.Sum(nil)
}

// checkSealed requires a sealed image to carry the Message-Authenticator
// as its first attribute, byte-equal to crypto/hmac's.
func checkSealed(t testing.TB, wire []byte, reqAuth *[16]byte, secret []byte) {
	t.Helper()
	if len(wire) < maEnd || wire[headerLen] != AttrMessageAuthenticator || wire[headerLen+1] != 18 {
		t.Fatalf("first attribute is not a Message-Authenticator: %x", wire)
	}
	if want := refHMAC(wire, reqAuth, secret); !bytes.Equal(wire[headerLen+2:maEnd], want) {
		t.Fatalf("%d-byte secret: Message-Authenticator %x, crypto/hmac %x", len(secret), wire[headerLen+2:maEnd], want)
	}
}

// checkMessageAuthenticator signs p and requires the attribute to be
// byte-equal to the crypto/hmac reference and to verify.
func checkMessageAuthenticator(t testing.TB, p *Packet, secret []byte) {
	t.Helper()
	if err := AddMessageAuthenticator(p, secret); err != nil {
		t.Fatal(err)
	}
	got, _ := p.Get(AttrMessageAuthenticator)
	if want := refMessageAuthenticator(t, p, secret); !bytes.Equal(got, want) {
		t.Fatalf("%d-byte secret: Message-Authenticator %x, crypto/hmac %x", len(secret), got, want)
	}
	if !VerifyMessageAuthenticator(p, secret) {
		t.Fatalf("%d-byte secret: own Message-Authenticator failed verification", len(secret))
	}
	wire, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	checkSealed(t, wire, nil, secret)
}

// TestMessageAuthenticatorMatchesHMAC pins the streamed HMAC-MD5 to
// crypto/hmac across the RFC 2104 key cases: shorter than, equal to, and
// longer than the 64-byte block (hashed first), on a request and on a
// reply carrying the request authenticator.
func TestMessageAuthenticatorMatchesHMAC(t *testing.T) {
	reply := &Packet{Code: AccessChallenge, Identifier: 200, Authenticator: sampleRequest().Authenticator}
	reply.Add(AttrState, []byte("challenge-1"))
	for i := 0; i < 8; i++ {
		reply.AddString(AttrReplyMessage, "an SMS with your code has been sent")
	}
	for _, n := range []int{1, 16, 64, 65, 200} {
		secret := make([]byte, n)
		for i := range secret {
			secret[i] = byte(i*31 + n)
		}
		checkMessageAuthenticator(t, sampleRequest(), secret)
		checkMessageAuthenticator(t, reply, secret)
	}
}

// FuzzMessageAuthenticator extends the table to arbitrary secrets and
// packets: every Message-Authenticator byte equals crypto/hmac's, and a
// changed packet fails verification. Every packet the client's request
// path and the server's reply path build carries the Message-Authenticator
// as its first attribute, byte-equal to crypto/hmac's.
func FuzzMessageAuthenticator(f *testing.F) {
	for _, n := range []int{1, 16, 64, 65, 200} {
		f.Add(bytes.Repeat([]byte{0xa5}, n), byte(1), []byte("alice"), []byte("tr-0123456789abcdef"))
	}
	f.Fuzz(func(t *testing.T, secret []byte, code byte, user, state []byte) {
		if len(user) > 253 {
			user = user[:253]
		}
		if len(state) > 253 {
			state = state[:253]
		}
		p := NewRequest(code)
		p.Code = Code(code)
		p.Add(AttrUserName, user)
		p.Add(AttrState, state)
		checkMessageAuthenticator(t, p, secret)
		p.AddString(AttrUserName, "x")
		if VerifyMessageAuthenticator(p, secret) {
			t.Fatal("tampered packet verified")
		}

		// The client's request path: a pooled request, sealed as
		// Client.Exchange seals it.
		b := getPacketBuf()
		defer packetBufs.Put(b)
		req := &b.pkt
		req.startRequest(0, b.buf[:0])
		req.Add(AttrUserName, user)
		req.Add(AttrProxyState, state)
		wire, err := (&Client{Secret: secret}).seal(req)
		if err != nil {
			t.Fatal(err)
		}
		checkSealed(t, wire, nil, secret)

		// The server's reply path, Proxy-State echo included.
		srv := &Server{Secret: secret, Handler: HandlerFunc(func(reply *Packet, _ *Request) bool {
			reply.Code = Code(code)
			reply.Add(AttrState, state)
			reply.Add(AttrReplyMessage, user)
			return true
		})}
		d := new(datagram)
		if err := d.in.pkt.DecodeFrom(d.in.buf[:copy(d.in.buf[:], wire)]); err != nil {
			t.Fatal(err)
		}
		out, _ := srv.respond(d, &net.UDPAddr{})
		checkSealed(t, out, &req.Authenticator, secret)
		resp, err := Decode(out)
		if err != nil || !VerifyResponse(resp, req.Authenticator, secret) {
			t.Fatalf("reply %x does not verify: %v", out, err)
		}
	})
}

// FuzzDecode throws arbitrary bytes at the decoder every RADIUS server and
// client runs on each datagram. Any input decodes or errors without
// panicking; the reusing decoder agrees with Decode; and what decodes is
// canonical: it re-encodes to exactly the length-field prefix it came
// from (bytes past the length are padding, RFC 2865 §3).
func FuzzDecode(f *testing.F) {
	for _, p := range []*Packet{sampleRequest(), {Code: AccessReject, Identifier: 9}} {
		wire, err := p.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
		f.Add(append(wire, 0, 0, 0))
	}
	var reused Packet
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data)
		if rerr := reused.DecodeFrom(data); (rerr == nil) != (err == nil) {
			t.Fatalf("Decode err %v, DecodeFrom err %v", err, rerr)
		}
		if err != nil {
			return
		}
		out, err := p.Encode()
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		n := int(data[2])<<8 | int(data[3])
		if !bytes.Equal(out, data[:n]) {
			t.Fatalf("decode→encode not canonical:\n in  %x\n out %x", data[:n], out)
		}
		if again, err := reused.AppendEncode(nil); err != nil || !bytes.Equal(again, out) {
			t.Fatalf("DecodeFrom re-encodes to %x, %v; want %x", again, err, out)
		}
	})
}

func TestCodeString(t *testing.T) {
	for c, want := range map[Code]string{
		AccessRequest: "Access-Request", AccessAccept: "Access-Accept",
		AccessReject: "Access-Reject", AccessChallenge: "Access-Challenge",
		Code(99): "Code(99)",
	} {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", byte(c), c.String(), want)
		}
	}
}

// Property: encode/decode round-trips arbitrary attribute sets.
func TestPacketRoundTripProperty(t *testing.T) {
	f := func(id byte, attrs [][]byte) bool {
		p := NewRequest(id)
		for i, v := range attrs {
			if len(v) > 253 {
				v = v[:253]
			}
			p.Add(byte(i%250)+1, v)
		}
		wire, err := p.Encode()
		if err != nil {
			return false
		}
		got, err := Decode(wire)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(attrsOf(got), attrsOf(p))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: password hiding round-trips all short printable passwords.
func TestHideRevealProperty(t *testing.T) {
	f := func(pwRaw []byte, secret []byte, auth [16]byte) bool {
		if len(secret) == 0 {
			secret = []byte{1}
		}
		if len(pwRaw) > 128 {
			pwRaw = pwRaw[:128]
		}
		// NUL bytes are indistinguishable from padding by design; real
		// token codes are digits.
		pw := ""
		for _, b := range pwRaw {
			if b != 0 {
				pw += string(rune(b%94 + 33))
			}
		}
		if len(pw) > 128 {
			pw = pw[:128]
		}
		hidden, err := HidePassword(pw, secret, auth)
		if err != nil {
			return false
		}
		got, err := RevealPassword(hidden, secret, auth)
		return err == nil && got == pw
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

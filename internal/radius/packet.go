// Package radius implements the subset of RADIUS (RFC 2865, RFC 2869) the
// MFA infrastructure depends on: Access-Request / Access-Accept /
// Access-Reject / Access-Challenge exchanges over UDP, User-Password
// hiding, response authenticators, Message-Authenticator (HMAC-MD5)
// integrity, a retransmitting client, a round-robin failover pool (the
// paper's PAM token module "communicate[s] with RADIUS servers in a
// round-robin fashion to provide load balancing and resiliency"), and a
// proxy ("capable of load balancing and proxy chaining across servers",
// §3.2).
//
// Every packet the stack emits carries a Message-Authenticator as its
// first attribute, and every Access-Request and reply it receives must
// carry a valid one (the Blast-RADIUS mitigation, CVE-2024-3596).
//
// # Who owns a packet's bytes
//
// A Packet is one buffer, its wire image: Add and AddString append each
// attribute to it in place, and Decode checks a datagram's attribute list
// once and then views the datagram's bytes without copying them. Values
// returned by Get and Range view the same bytes.
//
//   - On the server, the Request a Handler is given and the reply it fills
//     live in the scratch of the server worker that read the datagram.
//     They, and every value read from them, are valid only during the
//     ServeRADIUS call: copy what must outlive it. The only reply bytes
//     that outlive the datagram are the duplicate cache's own copy.
//   - On the client, the request Pool.Exchange hands to its rebuild
//     callback lives in pooled scratch and is valid only during that
//     exchange. The reply Exchange returns owns exactly its datagram's
//     bytes and belongs to the caller.
package radius

import (
	"crypto/hmac"
	"crypto/md5"
	"crypto/rand"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
)

// Code is the RADIUS packet type.
type Code byte

// Packet codes used by the infrastructure.
const (
	AccessRequest   Code = 1
	AccessAccept    Code = 2
	AccessReject    Code = 3
	AccessChallenge Code = 11
)

// String names the code.
func (c Code) String() string {
	switch c {
	case AccessRequest:
		return "Access-Request"
	case AccessAccept:
		return "Access-Accept"
	case AccessReject:
		return "Access-Reject"
	case AccessChallenge:
		return "Access-Challenge"
	default:
		return fmt.Sprintf("Code(%d)", byte(c))
	}
}

// Attribute types used by the infrastructure.
const (
	AttrUserName             = 1
	AttrUserPassword         = 2
	AttrNASIPAddress         = 4
	AttrReplyMessage         = 18
	AttrState                = 24
	AttrNASIdentifier        = 32
	AttrProxyState           = 33
	AttrMessageAuthenticator = 80
)

const headerLen = 20

// maEnd is where the reserved first attribute, the Message-Authenticator,
// ends in a built packet's image.
const maEnd = headerLen + 2 + md5.Size

// MaxPacketLen is the RFC 2865 maximum packet size.
const MaxPacketLen = 4096

// Packet is a RADIUS packet. The header fields are exported; the attribute
// list lives only in the packet's wire image (see the package doc for who
// owns it).
type Packet struct {
	Code          Code
	Identifier    byte
	Authenticator [16]byte

	// wire is the wire image: a 20-byte header, written from the fields
	// above whenever the image leaves the packet, then the attribute
	// list. A built packet's first attribute is the Message-Authenticator
	// slot, which sealing fills. A zero Packet's image is empty until
	// its first Add.
	wire []byte
	// err is the first Add that did not fit; Encode and sealing report it.
	err error
}

// Encoding/decoding errors.
var (
	ErrPacketTooShort = errors.New("radius: packet too short")
	ErrPacketTooLong  = errors.New("radius: packet exceeds 4096 bytes")
	ErrBadLength      = errors.New("radius: length field mismatch")
	ErrBadAttribute   = errors.New("radius: malformed attribute")
	ErrAttrTooLong    = errors.New("radius: attribute value exceeds 253 bytes")
	ErrNoMASlot       = errors.New("radius: first attribute is not a Message-Authenticator")
)

// reset starts p's image in buf (reallocated when too small): the header,
// then the Message-Authenticator slot, zeroed until sealing fills it.
func (p *Packet) reset(buf []byte) {
	if cap(buf) < maEnd {
		buf = make([]byte, 0, 128)
	}
	p.wire = buf[:maEnd]
	clear(p.wire)
	p.wire[headerLen] = AttrMessageAuthenticator
	p.wire[headerLen+1] = 2 + md5.Size
	p.err = nil
}

// startRequest makes p a fresh Access-Request with a random Request
// Authenticator, its image started in buf.
func (p *Packet) startRequest(identifier byte, buf []byte) {
	*p = Packet{Code: AccessRequest, Identifier: identifier}
	if _, err := rand.Read(p.Authenticator[:]); err != nil {
		panic("radius: rand: " + err.Error())
	}
	p.reset(buf)
}

// NewRequest builds an Access-Request with a fresh random authenticator.
func NewRequest(identifier byte) *Packet {
	p := new(Packet)
	p.startRequest(identifier, nil)
	return p
}

// attr appends the header of an attribute with an n-byte value and returns
// the value's bytes for the caller to fill, or nil (recording p.err) when
// the attribute does not fit. The first attribute of an empty packet is
// preceded by the Message-Authenticator slot.
func (p *Packet) attr(typ byte, n int) []byte {
	if p.err != nil {
		return nil
	}
	if n > 253 {
		p.err = ErrAttrTooLong
		return nil
	}
	if len(p.wire) == 0 {
		p.reset(p.wire)
	}
	off := len(p.wire)
	if off+2+n > MaxPacketLen {
		p.err = ErrPacketTooLong
		return nil
	}
	if cap(p.wire) < off+2+n {
		grown := make([]byte, off, max(2*cap(p.wire), off+2+n))
		copy(grown, p.wire)
		p.wire = grown
	}
	p.wire = p.wire[:off+2+n]
	p.wire[off], p.wire[off+1] = typ, byte(2+n)
	return p.wire[off+2:]
}

// Add appends an attribute, copying value into the packet's image.
func (p *Packet) Add(typ byte, value []byte) { copy(p.attr(typ, len(value)), value) }

// AddString appends a string-valued attribute.
func (p *Packet) AddString(typ byte, value string) { copy(p.attr(typ, len(value)), value) }

// Range calls fn with each attribute in wire order until fn returns false.
// The values view the packet's image.
func (p *Packet) Range(fn func(typ byte, value []byte) bool) {
	w := p.wire
	for off := headerLen; off < len(w); {
		end := off + int(w[off+1])
		if !fn(w[off], w[off+2:end:end]) {
			return
		}
		off = end
	}
}

// Get returns the first attribute of the given type, viewing the image.
func (p *Packet) Get(typ byte) ([]byte, bool) {
	w := p.wire
	for off := headerLen; off < len(w); {
		end := off + int(w[off+1])
		if w[off] == typ {
			return w[off+2 : end : end], true
		}
		off = end
	}
	return nil, false
}

// GetString returns the first attribute of the given type as a string.
func (p *Packet) GetString(typ byte) string {
	v, _ := p.Get(typ)
	return string(v)
}

// length is the packet's length field.
func (p *Packet) length() int { return max(len(p.wire), headerLen) }

// attrs is the attribute list of p's image.
func (p *Packet) attrs() []byte {
	if len(p.wire) <= headerLen {
		return nil
	}
	return p.wire[headerLen:]
}

// putHeader writes p's header fields into b[:headerLen], with auth in the
// authenticator field.
func (p *Packet) putHeader(b []byte, auth *[16]byte) {
	b[0] = byte(p.Code)
	b[1] = p.Identifier
	binary.BigEndian.PutUint16(b[2:4], uint16(p.length()))
	copy(b[4:headerLen], auth[:])
}

// image writes the header fields into a sealed packet's image and returns
// it: the datagram to send, viewing p's buffer.
func (p *Packet) image() []byte {
	p.putHeader(p.wire, &p.Authenticator)
	return p.wire
}

// Encode returns the wire form of the packet in a fresh buffer.
func (p *Packet) Encode() ([]byte, error) {
	return p.AppendEncode(make([]byte, 0, p.length()))
}

// AppendEncode appends the wire form of the packet to dst and returns the
// extended slice. With enough spare capacity in dst it allocates nothing.
func (p *Packet) AppendEncode(dst []byte) ([]byte, error) {
	if p.err != nil {
		return nil, p.err
	}
	var hdr [headerLen]byte
	p.putHeader(hdr[:], &p.Authenticator)
	dst = append(dst, hdr[:]...)
	return append(dst, p.attrs()...), nil
}

// Decode parses a wire packet. The packet views b, which must outlive it
// unchanged.
func Decode(b []byte) (*Packet, error) {
	p := new(Packet)
	if err := p.DecodeFrom(b); err != nil {
		return nil, err
	}
	return p, nil
}

// DecodeFrom parses a wire packet into p, replacing its contents. It
// checks the attribute list once and then views b in place: nothing is
// copied, so p and every value read from it are valid only while b is.
// Bytes past the length field are padding and are ignored (RFC 2865 §3).
// On error p is left unchanged.
func (p *Packet) DecodeFrom(b []byte) error {
	if len(b) < headerLen {
		return ErrPacketTooShort
	}
	length := int(binary.BigEndian.Uint16(b[2:4]))
	if length < headerLen || length > len(b) || length > MaxPacketLen {
		return ErrBadLength
	}
	for off := headerLen; off < length; {
		if off+2 > length {
			return ErrBadAttribute
		}
		alen := int(b[off+1])
		if alen < 2 || off+alen > length {
			return ErrBadAttribute
		}
		off += alen
	}
	p.Code = Code(b[0])
	p.Identifier = b[1]
	copy(p.Authenticator[:], b[4:headerLen])
	// Capped at the length: an Add to a decoded packet moves it to a
	// buffer of its own instead of writing over the datagram's padding.
	p.wire = b[:length:length]
	p.err = nil
	return nil
}

// clone returns a packet that owns a copy of p's image.
func (p *Packet) clone() *Packet {
	q := *p
	q.wire = append([]byte(nil), p.wire...)
	return &q
}

// ErrEmptySecret rejects a degenerate shared secret. RFC 2865 §5.2 derives
// the password keystream from MD5(secret + authenticator); an empty secret
// collapses that to MD5 of the (cleartext, attacker-visible) request
// authenticator, so hiding becomes trivially reversible on the wire.
var ErrEmptySecret = errors.New("radius: shared secret must be non-empty")

// pwKeystream computes one RFC 2865 §5.2 keystream block, MD5(secret +
// prev), streaming both into one digest so no secret length allocates.
func pwKeystream(secret, prev []byte) (b [md5.Size]byte) {
	h := md5.New()
	h.Write(secret)
	h.Write(prev)
	h.Sum(b[:0])
	return b
}

// hiddenLen validates a password and secret for hiding and returns the
// hidden length: the password padded to a 16-byte multiple, at least one
// block.
func hiddenLen(password string, secret []byte) (int, error) {
	if len(secret) == 0 {
		return 0, ErrEmptySecret
	}
	if len(password) > 128 {
		return 0, errors.New("radius: password longer than 128 bytes")
	}
	return max(16, (len(password)+15)/16*16), nil
}

// hidePassword writes the RFC 2865 §5.2 hidden form of password into out,
// whose length hiddenLen gave.
func hidePassword(out []byte, password string, secret []byte, reqAuth *[16]byte) {
	clear(out[copy(out, password):])
	prev := reqAuth[:]
	for i := 0; i+16 <= len(out); i += 16 {
		b := pwKeystream(secret, prev)
		for j := 0; j < 16; j++ {
			out[i+j] ^= b[j] // out holds the zero-padded password
		}
		prev = out[i : i+16]
	}
}

// HidePassword encodes password per RFC 2865 §5.2 using the shared secret
// and the request authenticator. Passwords longer than 128 bytes and empty
// secrets fail.
func HidePassword(password string, secret []byte, reqAuth [16]byte) ([]byte, error) {
	n, err := hiddenLen(password, secret)
	if err != nil {
		return nil, err
	}
	out := make([]byte, n)
	hidePassword(out, password, secret, &reqAuth)
	return out, nil
}

// AddPassword appends a User-Password attribute carrying password hidden
// under secret and p's Request Authenticator, written straight into the
// packet's image. It fails, adding nothing, where HidePassword fails.
func (p *Packet) AddPassword(password string, secret []byte) error {
	n, err := hiddenLen(password, secret)
	if err != nil {
		return err
	}
	if out := p.attr(AttrUserPassword, n); out != nil {
		hidePassword(out, password, secret, &p.Authenticator)
	}
	return nil
}

// RevealPassword inverts HidePassword, trimming trailing NUL padding. It
// reads hidden in place; the returned string is its only allocation.
func RevealPassword(hidden, secret []byte, reqAuth [16]byte) (string, error) {
	if len(secret) == 0 {
		return "", ErrEmptySecret
	}
	if len(hidden) == 0 || len(hidden)%16 != 0 || len(hidden) > 128 {
		return "", errors.New("radius: bad hidden password length")
	}
	var out [128]byte
	prev := reqAuth[:]
	for i := 0; i < len(hidden); i += 16 {
		b := pwKeystream(secret, prev)
		for j := 0; j < 16; j++ {
			out[i+j] = hidden[i+j] ^ b[j]
		}
		prev = hidden[i : i+16]
	}
	end := len(hidden)
	for end > 0 && out[end-1] == 0 {
		end--
	}
	return string(out[:end]), nil
}

// responseAuthenticator computes
// MD5(Code+ID+Length+RequestAuth+Attributes+Secret) over p's image,
// streaming the request authenticator in place of the header's.
func responseAuthenticator(p *Packet, reqAuth *[16]byte, secret []byte) (sum [md5.Size]byte) {
	var hdr [headerLen]byte
	p.putHeader(hdr[:], reqAuth)
	h := md5.New()
	h.Write(hdr[:])
	h.Write(p.attrs())
	h.Write(secret)
	h.Sum(sum[:0])
	return sum
}

// SignResponse fills in the response authenticator for a reply to a request
// carrying reqAuth.
func SignResponse(resp *Packet, reqAuth [16]byte, secret []byte) error {
	if resp.err != nil {
		return resp.err
	}
	resp.Authenticator = responseAuthenticator(resp, &reqAuth, secret)
	return nil
}

// VerifyResponse checks a reply's response authenticator.
func VerifyResponse(resp *Packet, reqAuth [16]byte, secret []byte) bool {
	want := responseAuthenticator(resp, &reqAuth, secret)
	return subtle.ConstantTimeCompare(want[:], resp.Authenticator[:]) == 1
}

// hmacBlock is MD5's block size, the width of the RFC 2104 key pads.
const hmacBlock = 64

// messageAuthenticator computes RFC 2104 HMAC-MD5(secret, image) over p's
// wire image with auth in the header's authenticator field and every
// Message-Authenticator value read as zeros, wherever it sits. The image
// is streamed into the digest, so p is not modified and nothing is
// copied. A secret longer than the block is hashed first, as RFC 2104 §2
// requires.
func messageAuthenticator(p *Packet, auth *[16]byte, secret []byte) (sum [md5.Size]byte) {
	var key [hmacBlock]byte
	if len(secret) > hmacBlock {
		k := md5.Sum(secret)
		copy(key[:], k[:])
	} else {
		copy(key[:], secret)
	}
	var pad [hmacBlock]byte
	for i, k := range key {
		pad[i] = k ^ 0x36
	}
	var hdr [headerLen]byte
	p.putHeader(hdr[:], auth)
	h := md5.New()
	h.Write(pad[:])
	h.Write(hdr[:])
	var zeros [253]byte
	w, start := p.wire, headerLen
	for off := headerLen; off < len(w); off += int(w[off+1]) {
		if w[off] == AttrMessageAuthenticator {
			h.Write(w[start : off+2])
			h.Write(zeros[:w[off+1]-2])
			start = off + int(w[off+1])
		}
	}
	if start < len(w) {
		h.Write(w[start:])
	}
	var inner [md5.Size]byte
	h.Sum(inner[:0])
	for i, k := range key {
		pad[i] = k ^ 0x5c
	}
	h.Reset()
	h.Write(pad[:])
	h.Write(inner[:])
	h.Sum(sum[:0])
	return sum
}

// AddMessageAuthenticator fills the RFC 2869 §5.14 Message-Authenticator
// slot, p's first attribute, computed over the packet with the attribute
// itself zeroed. A packet without attributes gets the slot first. For
// requests, the packet's own (random) authenticator is in place; for
// responses, the caller must first put the request authenticator in p's
// Authenticator. A decoded packet whose first attribute is not a
// Message-Authenticator fails with ErrNoMASlot.
func AddMessageAuthenticator(p *Packet, secret []byte) error {
	if p.err != nil {
		return p.err
	}
	if len(p.wire) <= headerLen {
		p.reset(p.wire)
	}
	if p.wire[headerLen] != AttrMessageAuthenticator || p.wire[headerLen+1] != 2+md5.Size {
		return ErrNoMASlot
	}
	sum := messageAuthenticator(p, &p.Authenticator, secret)
	copy(p.wire[headerLen+2:maEnd], sum[:])
	return nil
}

// VerifyMessageAuthenticator checks p's Message-Authenticator, wherever it
// sits. A packet without one fails. Verification streams the image into
// the HMAC and allocates nothing.
func VerifyMessageAuthenticator(p *Packet, secret []byte) bool {
	return verifyMessageAuthenticator(p, &p.Authenticator, secret)
}

// verifyMessageAuthenticator checks p's Message-Authenticator as computed
// with auth in the header: a reply's is computed over the request's
// authenticator.
func verifyMessageAuthenticator(p *Packet, auth *[16]byte, secret []byte) bool {
	got, ok := p.Get(AttrMessageAuthenticator)
	if !ok || len(got) != md5.Size {
		return false
	}
	want := messageAuthenticator(p, auth, secret)
	return hmac.Equal(want[:], got)
}

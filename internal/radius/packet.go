// Package radius implements the subset of RADIUS (RFC 2865, RFC 2869) the
// MFA infrastructure depends on: Access-Request / Access-Accept /
// Access-Reject / Access-Challenge exchanges over UDP, User-Password
// hiding, response authenticators, Message-Authenticator (HMAC-MD5)
// integrity, a retransmitting client, a round-robin failover pool (the
// paper's PAM token module "communicate[s] with RADIUS servers in a
// round-robin fashion to provide load balancing and resiliency"), and a
// proxy ("capable of load balancing and proxy chaining across servers",
// §3.2).
package radius

import (
	"crypto/hmac"
	"crypto/md5"
	"crypto/rand"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
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

// Attribute is a single type-length-value attribute.
type Attribute struct {
	Type  byte
	Value []byte
}

// Packet is a RADIUS packet.
type Packet struct {
	Code          Code
	Identifier    byte
	Authenticator [16]byte
	Attributes    []Attribute

	// valBuf is the single backing array DecodeFrom slices attribute
	// values out of, reused across decodes so a long-lived Packet parses
	// wire traffic without allocating.
	valBuf []byte
}

// Add appends an attribute.
func (p *Packet) Add(typ byte, value []byte) {
	v := make([]byte, len(value))
	copy(v, value)
	p.Attributes = append(p.Attributes, Attribute{Type: typ, Value: v})
}

// AddString appends a string-valued attribute.
func (p *Packet) AddString(typ byte, value string) { p.Add(typ, []byte(value)) }

// Get returns the first attribute of the given type.
func (p *Packet) Get(typ byte) ([]byte, bool) {
	for _, a := range p.Attributes {
		if a.Type == typ {
			return a.Value, true
		}
	}
	return nil, false
}

// GetString returns the first attribute of the given type as a string.
func (p *Packet) GetString(typ byte) string {
	v, _ := p.Get(typ)
	return string(v)
}

// GetAll returns every attribute of the given type, in order. Reply-Message
// may legally repeat to carry multi-line prompts.
func (p *Packet) GetAll(typ byte) [][]byte {
	var out [][]byte
	for _, a := range p.Attributes {
		if a.Type == typ {
			out = append(out, a.Value)
		}
	}
	return out
}

// RemoveAll deletes every attribute of the given type.
func (p *Packet) RemoveAll(typ byte) {
	kept := p.Attributes[:0]
	for _, a := range p.Attributes {
		if a.Type != typ {
			kept = append(kept, a)
		}
	}
	p.Attributes = kept
}

const headerLen = 20

// MaxPacketLen is the RFC 2865 maximum packet size.
const MaxPacketLen = 4096

// Encoding/decoding errors.
var (
	ErrPacketTooShort = errors.New("radius: packet too short")
	ErrPacketTooLong  = errors.New("radius: packet exceeds 4096 bytes")
	ErrBadLength      = errors.New("radius: length field mismatch")
	ErrBadAttribute   = errors.New("radius: malformed attribute")
	ErrAttrTooLong    = errors.New("radius: attribute value exceeds 253 bytes")
)

// Encode serialises the packet into a fresh buffer.
func (p *Packet) Encode() ([]byte, error) {
	return p.AppendEncode(nil)
}

// AppendEncode appends the wire form of the packet to dst and returns the
// extended slice. When dst has enough spare capacity the encode performs no
// allocation, which is what the per-datagram paths rely on.
func (p *Packet) AppendEncode(dst []byte) ([]byte, error) {
	length := headerLen
	for _, a := range p.Attributes {
		if len(a.Value) > 253 {
			return nil, ErrAttrTooLong
		}
		length += 2 + len(a.Value)
	}
	if length > MaxPacketLen {
		return nil, ErrPacketTooLong
	}
	base := len(dst)
	if cap(dst)-base < length {
		grown := make([]byte, base, base+length)
		copy(grown, dst)
		dst = grown
	}
	buf := dst[base : base+length]
	buf[0] = byte(p.Code)
	buf[1] = p.Identifier
	binary.BigEndian.PutUint16(buf[2:4], uint16(length))
	copy(buf[4:20], p.Authenticator[:])
	off := headerLen
	for _, a := range p.Attributes {
		buf[off] = a.Type
		buf[off+1] = byte(2 + len(a.Value))
		copy(buf[off+2:], a.Value)
		off += 2 + len(a.Value)
	}
	return dst[:base+length], nil
}

// Decode parses a wire packet.
func Decode(b []byte) (*Packet, error) {
	p := &Packet{}
	if err := p.DecodeFrom(b); err != nil {
		return nil, err
	}
	return p, nil
}

// DecodeFrom parses a wire packet into p, replacing its contents. The
// attribute slice and the value backing buffer are reused across calls, so
// decoding into a long-lived Packet allocates nothing once the buffers have
// grown to the traffic's working size. Attribute values from the previous
// decode are invalidated.
func (p *Packet) DecodeFrom(b []byte) error {
	if len(b) < headerLen {
		return ErrPacketTooShort
	}
	length := int(binary.BigEndian.Uint16(b[2:4]))
	if length < headerLen || length > len(b) || length > MaxPacketLen {
		return ErrBadLength
	}
	p.Code = Code(b[0])
	p.Identifier = b[1]
	copy(p.Authenticator[:], b[4:20])
	p.Attributes = p.Attributes[:0]
	body := length - headerLen
	if cap(p.valBuf) < body {
		p.valBuf = make([]byte, 0, body)
	}
	vals := p.valBuf[:0]
	off := headerLen
	for off < length {
		if off+2 > length {
			return ErrBadAttribute
		}
		alen := int(b[off+1])
		if alen < 2 || off+alen > length {
			return ErrBadAttribute
		}
		start := len(vals)
		vals = append(vals, b[off+2:off+alen]...)
		// Full slice expression: an append through one value must never
		// bleed into its neighbour.
		p.Attributes = append(p.Attributes, Attribute{
			Type:  b[off],
			Value: vals[start:len(vals):len(vals)],
		})
		off += alen
	}
	p.valBuf = vals
	return nil
}

// NewRequest builds an Access-Request with a fresh random authenticator.
func NewRequest(identifier byte) *Packet {
	p := &Packet{Code: AccessRequest, Identifier: identifier}
	if _, err := rand.Read(p.Authenticator[:]); err != nil {
		panic("radius: rand: " + err.Error())
	}
	return p
}

// ErrEmptySecret rejects a degenerate shared secret. RFC 2865 §5.2 derives
// the password keystream from MD5(secret + authenticator); an empty secret
// collapses that to MD5 of the (cleartext, attacker-visible) request
// authenticator, so hiding becomes trivially reversible on the wire.
var ErrEmptySecret = errors.New("radius: shared secret must be non-empty")

// pwKeystream computes one RFC 2865 §5.2 keystream block,
// MD5(secret + prev), without allocating: small secrets concatenate into a
// stack buffer and md5.Sum returns by value.
func pwKeystream(secret, prev []byte, scratch []byte) [md5.Size]byte {
	var stack [64]byte
	buf := stack[:0]
	if len(secret)+16 > len(stack) {
		buf = scratch[:0]
	}
	buf = append(buf, secret...)
	buf = append(buf, prev...)
	return md5.Sum(buf)
}

// HidePassword encodes password per RFC 2865 §5.2 using the shared secret
// and the request authenticator. Passwords longer than 128 bytes and empty
// secrets fail.
func HidePassword(password string, secret []byte, reqAuth [16]byte) ([]byte, error) {
	if len(secret) == 0 {
		return nil, ErrEmptySecret
	}
	if len(password) > 128 {
		return nil, errors.New("radius: password longer than 128 bytes")
	}
	// Pad to a 16-byte multiple; empty password still occupies one block.
	n := (len(password) + 15) / 16 * 16
	if n == 0 {
		n = 16
	}
	out := make([]byte, n)
	copy(out, password)
	var scratch []byte
	if len(secret)+16 > 64 {
		scratch = make([]byte, 0, len(secret)+16)
	}
	prev := reqAuth[:]
	for i := 0; i < n; i += 16 {
		b := pwKeystream(secret, prev, scratch)
		for j := 0; j < 16; j++ {
			out[i+j] ^= b[j] // out holds the zero-padded password
		}
		prev = out[i : i+16]
	}
	return out, nil
}

// RevealPassword inverts HidePassword, trimming trailing NUL padding.
func RevealPassword(hidden, secret []byte, reqAuth [16]byte) (string, error) {
	if len(secret) == 0 {
		return "", ErrEmptySecret
	}
	if len(hidden) == 0 || len(hidden)%16 != 0 || len(hidden) > 128 {
		return "", errors.New("radius: bad hidden password length")
	}
	out := make([]byte, len(hidden))
	var scratch []byte
	if len(secret)+16 > 64 {
		scratch = make([]byte, 0, len(secret)+16)
	}
	prev := reqAuth[:]
	for i := 0; i < len(hidden); i += 16 {
		b := pwKeystream(secret, prev, scratch)
		for j := 0; j < 16; j++ {
			out[i+j] = hidden[i+j] ^ b[j]
		}
		prev = hidden[i : i+16]
	}
	// Strip padding.
	end := len(out)
	for end > 0 && out[end-1] == 0 {
		end--
	}
	return string(out[:end]), nil
}

// wireBufs pools MaxPacketLen-capacity scratch buffers for the encode-and-
// hash paths (response authenticators, Message-Authenticator computation,
// client exchanges, the server's datagram fan-out). Getting a buffer never
// blocks; the pool only trims steady-state allocation.
var wireBufs = sync.Pool{
	New: func() any {
		// Room for a full packet behind the HMAC key-pad block.
		b := make([]byte, 0, hmacBlock+MaxPacketLen)
		return &b
	},
}

func getWireBuf() *[]byte  { return wireBufs.Get().(*[]byte) }
func putWireBuf(b *[]byte) { *b = (*b)[:0]; wireBufs.Put(b) }

// responseAuthenticator computes MD5(Code+ID+Length+RequestAuth+Attrs+Secret)
// for a response whose Authenticator field is currently zero or arbitrary.
func responseAuthenticator(resp *Packet, reqAuth [16]byte, secret []byte) ([16]byte, error) {
	save := resp.Authenticator
	resp.Authenticator = reqAuth
	buf := getWireBuf()
	defer putWireBuf(buf)
	wire, err := resp.AppendEncode(*buf)
	resp.Authenticator = save
	if err != nil {
		return [16]byte{}, err
	}
	// MD5 over wire+secret in one pass: the pooled buffer has room for the
	// secret tail, so the whole computation stays allocation-free.
	wire = append(wire, secret...)
	return md5.Sum(wire), nil
}

// SignResponse fills in the response authenticator for a reply to a request
// carrying reqAuth.
func SignResponse(resp *Packet, reqAuth [16]byte, secret []byte) error {
	auth, err := responseAuthenticator(resp, reqAuth, secret)
	if err != nil {
		return err
	}
	resp.Authenticator = auth
	return nil
}

// VerifyResponse checks a reply's response authenticator.
func VerifyResponse(resp *Packet, reqAuth [16]byte, secret []byte) bool {
	want, err := responseAuthenticator(resp, reqAuth, secret)
	if err != nil {
		return false
	}
	return subtle.ConstantTimeCompare(want[:], resp.Authenticator[:]) == 1
}

// zeroMessageAuthenticators blanks the value bytes of every
// Message-Authenticator attribute inside an encoded packet image. The wire
// layout is already validated by the encode, so the walk is structural.
func zeroMessageAuthenticators(wire []byte) {
	off := headerLen
	for off+2 <= len(wire) {
		alen := int(wire[off+1])
		if alen < 2 || off+alen > len(wire) {
			return
		}
		if wire[off] == AttrMessageAuthenticator {
			for i := off + 2; i < off+alen; i++ {
				wire[i] = 0
			}
		}
		off += alen
	}
}

// hmacBlock is MD5's block size, the width of the RFC 2104 key pads.
const hmacBlock = 64

// messageAuthenticator computes RFC 2104 HMAC-MD5(secret, image) over p's
// wire image with every Message-Authenticator value zeroed, without a
// keyed crypto/hmac state: the packet is encoded into a pooled buffer
// behind its K⊕ipad block, so the inner hash is one md5.Sum, and the outer
// hash is a second md5.Sum over K⊕opad ‖ inner on the stack. A secret
// longer than the block is hashed first, as RFC 2104 §2 requires.
func messageAuthenticator(p *Packet, secret []byte) ([md5.Size]byte, error) {
	var key [hmacBlock]byte
	if len(secret) > hmacBlock {
		sum := md5.Sum(secret)
		copy(key[:], sum[:])
	} else {
		copy(key[:], secret)
	}
	buf := getWireBuf()
	defer putWireBuf(buf)
	inner := (*buf)[:hmacBlock]
	for i, k := range key {
		inner[i] = k ^ 0x36
	}
	inner, err := p.AppendEncode(inner)
	if err != nil {
		return [md5.Size]byte{}, err
	}
	zeroMessageAuthenticators(inner[hmacBlock:])
	var outer [hmacBlock + md5.Size]byte
	for i, k := range key {
		outer[i] = k ^ 0x5c
	}
	sum := md5.Sum(inner)
	copy(outer[hmacBlock:], sum[:])
	return md5.Sum(outer[:]), nil
}

// AddMessageAuthenticator appends an RFC 2869 §5.14 Message-Authenticator
// computed over the packet with the attribute itself zeroed. For requests,
// the packet's own (random) authenticator is in place; for responses,
// reqAuth must already be substituted by the caller. The attribute value
// is the only allocation.
func AddMessageAuthenticator(p *Packet, secret []byte) error {
	p.RemoveAll(AttrMessageAuthenticator)
	ma := make([]byte, md5.Size)
	p.Attributes = append(p.Attributes, Attribute{Type: AttrMessageAuthenticator, Value: ma})
	sum, err := messageAuthenticator(p, secret)
	if err != nil {
		return err
	}
	copy(ma, sum[:])
	return nil
}

// VerifyMessageAuthenticator checks the Message-Authenticator attribute if
// present; packets without one verify trivially (the attribute is optional
// for Access-Request). The recomputation zeroes the attribute in a scratch
// wire image instead of deep-cloning the packet, so verification costs one
// encode plus two MD5 passes and allocates nothing.
func VerifyMessageAuthenticator(p *Packet, secret []byte) bool {
	got, ok := p.Get(AttrMessageAuthenticator)
	if !ok {
		return true
	}
	if len(got) != md5.Size {
		return false
	}
	want, err := messageAuthenticator(p, secret)
	if err != nil {
		return false
	}
	return hmac.Equal(want[:], got)
}

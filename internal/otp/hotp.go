// Package otp implements the one-time password algorithms the paper's token
// devices rely on: HOTP (RFC 4226) and TOTP (RFC 6238), plus otpauth:// key
// URIs (the payload of the QR code shown during soft-token pairing) and
// Base32 secret handling.
//
// All three of the paper's user-facing token types — the in-house
// smartphone app, the Feitian OTP c200 fob, and SMS-delivered codes — are
// six-digit, 30-second TOTP generators; the static "training token" type is
// handled by the otpd back end rather than here.
package otp

import (
	"crypto/sha1"
	"crypto/sha256"
	"crypto/sha512"
	"crypto/subtle"
	"encoding"
	"encoding/base32"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"math"
	"strings"
	"sync"
)

// Algorithm selects the HMAC hash for HOTP/TOTP computation.
type Algorithm int

// Supported algorithms. SHA1 is what RFC 6238's reference values, Google
// Authenticator, and the Feitian fobs use; it is the package default.
const (
	SHA1 Algorithm = iota
	SHA256
	SHA512
)

// String returns the otpauth URI spelling of the algorithm.
func (a Algorithm) String() string {
	switch a {
	case SHA1:
		return "SHA1"
	case SHA256:
		return "SHA256"
	case SHA512:
		return "SHA512"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ParseAlgorithm converts an otpauth URI algorithm name.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch strings.ToUpper(s) {
	case "", "SHA1":
		return SHA1, nil
	case "SHA256":
		return SHA256, nil
	case "SHA512":
		return SHA512, nil
	default:
		return 0, fmt.Errorf("otp: unknown algorithm %q", s)
	}
}

func (a Algorithm) newHash() hash.Hash {
	switch a {
	case SHA1:
		return sha1.New()
	case SHA256:
		return sha256.New()
	default:
		return sha512.New()
	}
}

// Digits is the length of generated codes. The paper's deployment uses six
// digits everywhere.
type Digits int

// Common code lengths.
const (
	SixDigits   Digits = 6
	EightDigits Digits = 8
)

// Valid reports whether d is a code length HOTP supports (6..9: RFC 4226
// §5.3 requires at least six digits, and 10^d must fit in the 31-bit
// truncation space, which caps d at nine).
func (d Digits) Valid() bool { return d >= 6 && d <= 9 }

// Format renders a truncated HOTP value as a zero-padded code string.
// Values already reduced modulo 10^d (as HOTP truncation guarantees) take
// the fixed-size encoder; anything else falls back to fmt, preserving the
// historical print-every-digit behaviour for out-of-contract input.
func (d Digits) Format(v uint32) string {
	if !d.Valid() || v >= pow10[d] {
		return fmt.Sprintf("%0*d", int(d), v)
	}
	var buf [9]byte
	return string(d.appendFormat(buf[:0], v))
}

// appendFormat appends the zero-padded decimal rendering of v to dst
// without going through fmt. d must be Valid; v must already be reduced
// modulo 10^d (as HOTP truncation guarantees).
func (d Digits) appendFormat(dst []byte, v uint32) []byte {
	var buf [9]byte
	n := int(d)
	for i := n - 1; i >= 0; i-- {
		buf[i] = '0' + byte(v%10)
		v /= 10
	}
	return append(dst, buf[:n]...)
}

var pow10 = [...]uint32{1, 10, 100, 1000, 10000, 100000, 1000000, 10000000, 100000000, 1000000000}

// ErrInvalidDigits is returned for unsupported code lengths.
var ErrInvalidDigits = errors.New("otp: digits must be between 6 and 9")

// Generator computes HOTP codes for one secret. Keying hashes the RFC 2104
// K⊕ipad and K⊕opad blocks once and saves both hash states; each code
// restores them, so it costs two hash compressions and no allocation. The
// hash comes from a per-algorithm pool, so the window scans below
// (ValidateHOTP, ValidateTOTP, Resync), which keep their Generator on the
// stack, allocate nothing either.
type Generator struct {
	alg    Algorithm
	digits Digits
	mac    *padStates
}

// padStates is one hash plus its two saved keyed states. Every buffer the
// hash reads or writes lives here, not on the caller's stack, because a
// slice handed to an interface method escapes.
type padStates struct {
	h            hash.Hash
	inner, outer []byte                 // marshaled states after K⊕ipad / K⊕opad
	scratch      [sha512.BlockSize]byte // pad block, counter, digests
}

// padPools recycles padStates per algorithm.
var padPools = [...]sync.Pool{
	SHA1:   {New: func() any { return &padStates{h: SHA1.newHash()} }},
	SHA256: {New: func() any { return &padStates{h: SHA256.newHash()} }},
	SHA512: {New: func() any { return &padStates{h: SHA512.newHash()} }},
}

// NewGenerator builds a reusable code generator. A Generator is not safe
// for concurrent use.
func NewGenerator(secret []byte, digits Digits, alg Algorithm) (*Generator, error) {
	g := new(Generator)
	if err := g.init(secret, digits, alg); err != nil {
		return nil, err
	}
	return g, nil
}

// init keys g. A caller that keeps g on its stack calls release when done.
func (g *Generator) init(secret []byte, digits Digits, alg Algorithm) error {
	if !digits.Valid() {
		return ErrInvalidDigits
	}
	switch alg {
	case SHA1, SHA256, SHA512:
	default:
		return fmt.Errorf("otp: unknown algorithm %v", alg)
	}
	m := padPools[alg].Get().(*padStates)
	bs := m.h.BlockSize()
	pad := m.scratch[:bs]
	clear(pad)
	if len(secret) > bs {
		// RFC 2104 §2: a key longer than the block is hashed first.
		m.h.Reset()
		m.h.Write(secret)
		m.h.Sum(pad[:0])
	} else {
		copy(pad, secret)
	}
	for i := range pad {
		pad[i] ^= 0x36
	}
	m.inner = m.save(m.inner[:0], pad)
	for i := range pad {
		pad[i] ^= 0x36 ^ 0x5c
	}
	m.outer = m.save(m.outer[:0], pad)
	clear(pad)
	*g = Generator{alg: alg, digits: digits, mac: m}
	return nil
}

// release wipes g's key-derived states and returns its hashing state to
// the pool; g must not be used after.
func (g *Generator) release() {
	clear(g.mac.inner)
	clear(g.mac.outer)
	padPools[g.alg].Put(g.mac)
	g.mac = nil
}

// save hashes one pad block and appends the resulting state to dst.
// AppendBinary (Go 1.24) writes into dst; older toolchains fall back to
// MarshalBinary, which allocates.
func (m *padStates) save(dst, pad []byte) []byte {
	m.h.Reset()
	m.h.Write(pad)
	var b []byte
	var err error
	if a, ok := m.h.(interface{ AppendBinary([]byte) ([]byte, error) }); ok {
		b, err = a.AppendBinary(dst)
	} else if b, err = m.h.(encoding.BinaryMarshaler).MarshalBinary(); err == nil {
		b = append(dst, b...)
	}
	if err != nil {
		panic("otp: hash state not marshalable: " + err.Error()) // every crypto/sha* digest is
	}
	return b
}

// restore resets the hash to a state save produced.
func (m *padStates) restore(state []byte) {
	if err := m.h.(encoding.BinaryUnmarshaler).UnmarshalBinary(state); err != nil {
		panic("otp: restoring a saved hash state: " + err.Error()) // save made it from this hash
	}
}

// Value computes the truncated RFC 4226 §5.3 value (already reduced modulo
// 10^digits) for counter.
func (g *Generator) Value(counter uint64) uint32 {
	m := g.mac
	binary.BigEndian.PutUint64(m.scratch[:8], counter)
	m.restore(m.inner)
	m.h.Write(m.scratch[:8])
	sum := m.h.Sum(m.scratch[:0])
	m.restore(m.outer)
	m.h.Write(sum)
	sum = m.h.Sum(m.scratch[:0])
	offset := sum[len(sum)-1] & 0x0f
	code := binary.BigEndian.Uint32(sum[offset:offset+4]) & 0x7fffffff
	return code % pow10[g.digits]
}

// AppendCode appends the zero-padded code for counter to dst, allocating
// only if dst lacks capacity.
func (g *Generator) AppendCode(dst []byte, counter uint64) []byte {
	return g.digits.appendFormat(dst, g.Value(counter))
}

// Code returns the code for counter as a string (one allocation for the
// returned string).
func (g *Generator) Code(counter uint64) string {
	var buf [9]byte
	return string(g.AppendCode(buf[:0], counter))
}

// HOTP computes the RFC 4226 HMAC-based one-time password for the given
// secret key and moving counter.
func HOTP(secret []byte, counter uint64, digits Digits, alg Algorithm) (string, error) {
	var g Generator
	if err := g.init(secret, digits, alg); err != nil {
		return "", err
	}
	defer g.release()
	return g.Code(counter), nil
}

// ValidateHOTP reports whether code matches any counter in
// [counter, counter+window] and returns the matching counter. A window of 0
// checks exactly one value; a scan whose upper end would overflow uint64 is
// clamped at MaxUint64 instead of wrapping around to counter zero. The
// comparison is constant-time per candidate.
func ValidateHOTP(secret []byte, code string, counter uint64, window int, digits Digits, alg Algorithm) (uint64, bool) {
	if window < 0 {
		window = 0
	}
	var g Generator
	if err := g.init(secret, digits, alg); err != nil {
		return 0, false
	}
	defer g.release()
	end := counter + uint64(window)
	if end < counter {
		end = math.MaxUint64
	}
	var buf [9]byte
	for c := counter; ; c++ {
		if codeEqual(g.AppendCode(buf[:0], c), code) {
			return c, true
		}
		if c == end {
			return 0, false
		}
	}
}

// codeEqual compares a computed code against user input in constant time
// via the vetted crypto/subtle primitive. The length check leaks only the
// length of the attacker-supplied input, never secret-derived data.
func codeEqual(want []byte, code string) bool {
	if len(want) != len(code) {
		return false
	}
	return subtle.ConstantTimeCompare(want, []byte(code)) == 1
}

// Base32 secret helpers. Secrets travel in unpadded RFC 4648 Base32, the
// encoding Google Authenticator-compatible apps expect in otpauth URIs.
var b32 = base32.StdEncoding.WithPadding(base32.NoPadding)

// EncodeSecret renders raw key bytes as unpadded Base32.
func EncodeSecret(secret []byte) string {
	return b32.EncodeToString(secret)
}

// DecodeSecret parses an unpadded (or padded) Base32 secret, tolerating
// lowercase input and interior spaces, which users routinely introduce when
// typing secrets by hand.
func DecodeSecret(s string) ([]byte, error) {
	clean := strings.ToUpper(strings.NewReplacer(" ", "", "-", "").Replace(s))
	clean = strings.TrimRight(clean, "=")
	b, err := b32.DecodeString(clean)
	if err != nil {
		return nil, fmt.Errorf("otp: bad base32 secret: %w", err)
	}
	return b, nil
}

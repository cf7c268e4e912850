// Package sshwire defines the framed protocol between the simulated SSH
// client and the login-node daemon (internal/sshd).
//
// DESIGN.md substitution note: this is not the RFC 4253 binary transport.
// The reproduction needs SSH's *authentication surface* — public-key
// verification invisible to PAM, a password/keyboard-interactive
// conversation, retry limits, banners, and connection multiplexing — and
// those are carried faithfully over length-prefixed frames: a 4-byte
// big-endian body length, then the body, one tag byte per non-empty Msg
// field. A string or byte field follows its tag with a uvarint length and
// the bytes; a bool field is its tag alone. Bodies are capped at 1 MiB.
// Real ed25519 signatures over a server nonce stand in for SSH's signed
// session identifier.
package sshwire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
)

// Message types.
const (
	// Client → server.
	THello   = "hello"   // user, tty, shell
	TPubkey  = "pubkey"  // pub, sig over nonce
	TAnswer  = "answer"  // value (reply to prompt)
	TChannel = "channel" // open a multiplexed channel on an authed conn
	TExec    = "exec"    // cmd (run on an open channel)
	TBye     = "bye"     // close

	// Server → client.
	TNonce     = "nonce"      // nonce, banner
	TPubkeyOK  = "pubkey-ok"  //
	TPubkeyNo  = "pubkey-no"  //
	TPrompt    = "prompt"     // msg, echo
	TInfo      = "info"       // msg
	TResult    = "result"     // ok, msg (authentication verdict)
	TChannelOK = "channel-ok" //
	TExecOut   = "exec-out"   // out
	TError     = "error"      // msg (protocol violation; connection drops)
)

// types lets RecvInto return the constant for a known T instead of
// allocating a copy of it.
var types = [...]string{
	THello, TPubkey, TAnswer, TChannel, TExec, TBye,
	TNonce, TPubkeyOK, TPubkeyNo, TPrompt, TInfo, TResult, TChannelOK, TExecOut, TError,
}

// Msg is the single frame type; unused fields stay empty.
type Msg struct {
	T      string
	User   string
	TTY    bool
	Shell  string
	Nonce  []byte
	Banner string
	Pub    []byte
	Sig    []byte
	Msg    string
	Echo   bool
	Value  string
	OK     bool
	Cmd    string
	Out    string
}

// Field tags, in the order a body carries them. Each appears at most once
// and only when its field is non-empty, so a Msg has exactly one encoding.
const (
	tagT byte = iota + 1
	tagUser
	tagTTY
	tagShell
	tagNonce
	tagBanner
	tagPub
	tagSig
	tagMsg
	tagEcho
	tagValue
	tagOK
	tagCmd
	tagOut
)

// maxFrame caps a frame body. A longer declared length is refused before
// any of its body is read.
const maxFrame = 1 << 20

// Conn frames Msgs over a net.Conn. One goroutine may Send while another
// receives; neither side is safe for concurrent use on its own.
type Conn struct {
	c    net.Conn
	rbuf []byte // received bytes; rbuf[r:w] is not yet consumed
	r, w int
	wbuf []byte // the frame being sent, reused

	// Login frames are a few dozen bytes and every login opens a Conn on
	// each side, so both buffers start inside the Conn (one allocation)
	// and grow only when a frame needs it.
	rarr [512]byte
	warr [256]byte
}

// NewConn wraps c.
func NewConn(c net.Conn) *Conn {
	wc := new(Conn)
	wc.Reset(c)
	return wc
}

// Reset makes c a fresh Conn over nc, for a Conn held inside a larger value.
func (c *Conn) Reset(nc net.Conn) {
	*c = Conn{c: nc}
	c.rbuf, c.wbuf = c.rarr[:], c.warr[:0]
}

// Send writes one frame with a single Write.
func (c *Conn) Send(m *Msg) error {
	b := appendMsg(append(c.wbuf[:0], 0, 0, 0, 0), m)
	n := len(b) - 4
	if n > maxFrame {
		c.wbuf = c.warr[:0] // do not keep the oversize buffer
		return fmt.Errorf("sshwire: send: frame of %d bytes too long (max %d)", n, maxFrame)
	}
	c.wbuf = b
	binary.BigEndian.PutUint32(b, uint32(n))
	if _, err := c.c.Write(b); err != nil {
		return fmt.Errorf("sshwire: send: %w", err)
	}
	return nil
}

func appendMsg(b []byte, m *Msg) []byte {
	b = appendField(b, tagT, m.T)
	b = appendField(b, tagUser, m.User)
	b = appendBool(b, tagTTY, m.TTY)
	b = appendField(b, tagShell, m.Shell)
	b = appendField(b, tagNonce, m.Nonce)
	b = appendField(b, tagBanner, m.Banner)
	b = appendField(b, tagPub, m.Pub)
	b = appendField(b, tagSig, m.Sig)
	b = appendField(b, tagMsg, m.Msg)
	b = appendBool(b, tagEcho, m.Echo)
	b = appendField(b, tagValue, m.Value)
	b = appendBool(b, tagOK, m.OK)
	b = appendField(b, tagCmd, m.Cmd)
	return appendField(b, tagOut, m.Out)
}

func appendField[S string | []byte](b []byte, tag byte, v S) []byte {
	if len(v) == 0 {
		return b
	}
	b = binary.AppendUvarint(append(b, tag), uint64(len(v)))
	return append(b, v...)
}

func appendBool(b []byte, tag byte, v bool) []byte {
	if !v {
		return b
	}
	return append(b, tag)
}

// Recv reads one frame.
func (c *Conn) Recv() (*Msg, error) {
	var m Msg
	if err := c.RecvInto(&m); err != nil {
		return nil, err
	}
	return &m, nil
}

// RecvInto reads one frame into m, which is reset first. Callers that loop
// over a conversation can reuse one Msg instead of allocating per frame.
func (c *Conn) RecvInto(m *Msg) error {
	*m = Msg{}
	body, err := c.readFrame()
	if err != nil {
		return err
	}
	return decode(body, m)
}

// readFrame returns the next frame's body, valid until the next call.
func (c *Conn) readFrame() ([]byte, error) {
	if c.r == c.w {
		c.r, c.w = 0, 0
	}
	if err := c.fill(4); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(c.rbuf[c.r:])
	if n > maxFrame {
		return nil, fmt.Errorf("sshwire: recv: frame of %d bytes too long (max %d)", n, maxFrame)
	}
	if err := c.fill(4 + int(n)); err != nil {
		return nil, err
	}
	body := c.rbuf[c.r+4 : c.r+4+int(n)]
	c.r += 4 + int(n)
	return body, nil
}

// fill reads until rbuf[r:w] holds at least need bytes. The buffer doubles
// only when received bytes fill it, so its size follows what the peer
// sent, never the length it declared.
func (c *Conn) fill(need int) error {
	for c.w-c.r < need {
		if c.w == len(c.rbuf) {
			if c.r > 0 {
				c.w = copy(c.rbuf, c.rbuf[c.r:c.w])
				c.r = 0
			} else {
				nb := make([]byte, min(2*len(c.rbuf), 4+maxFrame))
				copy(nb, c.rbuf[:c.w])
				c.rbuf = nb
			}
		}
		n, err := c.c.Read(c.rbuf[c.w:])
		c.w += n
		if err != nil && c.w-c.r < need {
			switch {
			case !errors.Is(err, io.EOF):
				return fmt.Errorf("sshwire: recv: %w", err)
			case c.w == c.r:
				return errors.New("sshwire: connection closed")
			default:
				return fmt.Errorf("sshwire: decode: truncated frame (%d bytes)", c.w-c.r)
			}
		}
	}
	return nil
}

// decode parses one frame body into a reset m. Every string and byte field
// is copied out of body; T is the matching constant when it is a known
// type.
func decode(body []byte, m *Msg) error {
	var last byte
	for len(body) > 0 {
		tag := body[0]
		body = body[1:]
		if tag <= last || tag > tagOut {
			return fmt.Errorf("sshwire: decode: tag %d unknown or out of order", tag)
		}
		last = tag
		switch tag {
		case tagTTY:
			m.TTY = true
			continue
		case tagEcho:
			m.Echo = true
			continue
		case tagOK:
			m.OK = true
			continue
		}
		// Refuse an empty field, a uvarint with a redundant trailing 0x00
		// byte, and a length running past the body.
		n, k := binary.Uvarint(body)
		if k <= 0 || body[k-1] == 0 || n > uint64(len(body)-k) {
			return fmt.Errorf("sshwire: decode: tag %d: bad length", tag)
		}
		v := body[k : k+int(n)]
		body = body[k+int(n):]
		switch tag {
		case tagT:
			m.T = intern(v)
		case tagUser:
			m.User = string(v)
		case tagShell:
			m.Shell = string(v)
		case tagNonce:
			m.Nonce = bytes.Clone(v)
		case tagBanner:
			m.Banner = string(v)
		case tagPub:
			m.Pub = bytes.Clone(v)
		case tagSig:
			m.Sig = bytes.Clone(v)
		case tagMsg:
			m.Msg = string(v)
		case tagValue:
			m.Value = string(v)
		case tagCmd:
			m.Cmd = string(v)
		case tagOut:
			m.Out = string(v)
		}
	}
	if m.T == "" {
		return errors.New("sshwire: decode: frame has no type")
	}
	return nil
}

func intern(v []byte) string {
	for _, t := range types {
		if string(v) == t {
			return t
		}
	}
	return string(v)
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.c.Close() }

// RemoteAddr exposes the peer address.
func (c *Conn) RemoteAddr() net.Addr { return c.c.RemoteAddr() }

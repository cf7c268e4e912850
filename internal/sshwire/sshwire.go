// Package sshwire defines the line protocol between the simulated SSH
// client and the login-node daemon (internal/sshd).
//
// DESIGN.md substitution note: this is not the RFC 4253 binary transport.
// The reproduction needs SSH's *authentication surface* — public-key
// verification invisible to PAM, a password/keyboard-interactive
// conversation, retry limits, banners, and connection multiplexing — and
// those are carried faithfully over JSON lines. Real ed25519 signatures
// over a server nonce stand in for SSH's signed session identifier.
package sshwire

import (
	"bufio"
	"encoding/json"
	"fmt"
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

// Msg is the single frame type; unused fields stay empty.
type Msg struct {
	T      string `json:"t"`
	User   string `json:"user,omitempty"`
	TTY    bool   `json:"tty,omitempty"`
	Shell  string `json:"shell,omitempty"`
	Nonce  []byte `json:"nonce,omitempty"`
	Banner string `json:"banner,omitempty"`
	Pub    []byte `json:"pub,omitempty"`
	Sig    []byte `json:"sig,omitempty"`
	Msg    string `json:"msg,omitempty"`
	Echo   bool   `json:"echo,omitempty"`
	Value  string `json:"value,omitempty"`
	OK     bool   `json:"ok,omitempty"`
	Cmd    string `json:"cmd,omitempty"`
	Out    string `json:"out,omitempty"`
}

// Conn frames Msgs over a net.Conn.
type Conn struct {
	c   net.Conn
	r   *bufio.Scanner
	enc *json.Encoder
}

// NewConn wraps c.
func NewConn(c net.Conn) *Conn {
	sc := bufio.NewScanner(c)
	// Login frames are a few hundred bytes and every login opens a Conn on
	// each side, so start small; the scanner doubles the buffer on demand.
	sc.Buffer(make([]byte, 0, 512), 1024*1024)
	return &Conn{c: c, r: sc, enc: json.NewEncoder(c)}
}

// Send writes one frame.
func (c *Conn) Send(m *Msg) error {
	if err := c.enc.Encode(m); err != nil {
		return fmt.Errorf("sshwire: send: %w", err)
	}
	return nil
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
	if !c.r.Scan() {
		if err := c.r.Err(); err != nil {
			return fmt.Errorf("sshwire: recv: %w", err)
		}
		return fmt.Errorf("sshwire: connection closed")
	}
	*m = Msg{}
	if err := json.Unmarshal(c.r.Bytes(), m); err != nil {
		return fmt.Errorf("sshwire: decode: %w", err)
	}
	return nil
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.c.Close() }

// RemoteAddr exposes the peer address.
func (c *Conn) RemoteAddr() net.Addr { return c.c.RemoteAddr() }

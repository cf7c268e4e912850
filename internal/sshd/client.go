package sshd

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"net"

	"openmfa/internal/sshwire"
)

// Responder supplies answers to keyboard-interactive prompts, like an SSH
// client's askpass plumbing. Info receives non-prompt messages.
type Responder interface {
	Answer(echo bool, prompt string) (string, error)
	Info(msg string)
}

// FuncResponder adapts a function (Info messages are collected in Infos).
type FuncResponder struct {
	Fn    func(echo bool, prompt string) (string, error)
	Infos []string
}

// Answer implements Responder.
func (f *FuncResponder) Answer(echo bool, prompt string) (string, error) {
	return f.Fn(echo, prompt)
}

// Info implements Responder.
func (f *FuncResponder) Info(msg string) { f.Infos = append(f.Infos, msg) }

// Client is a simulated SSH client connection.
type Client struct {
	wc     *sshwire.Conn
	Banner string
	authed bool
}

// DialOptions configures a connection attempt.
type DialOptions struct {
	User string
	// Key, when set, is offered as the first factor before passwords.
	Key ed25519.PrivateKey
	// TTY and Shell feed the §4.1 telemetry in the auth log.
	TTY   bool
	Shell string
	// Responder answers PAM prompts (password, token code,
	// acknowledgements). Required unless the login is fully exempt and
	// key-based.
	Responder Responder
	// dial, when set, replaces net.Dial; tests connect over pipes.
	dial func(network, addr string) (net.Conn, error)
}

// ErrDenied is returned when the server refuses entry.
var ErrDenied = errors.New("sshd: permission denied")

// Dial connects to addr and authenticates per opts.
func Dial(addr string, opts DialOptions) (*Client, error) {
	dial := opts.dial
	if dial == nil {
		dial = net.Dial
	}
	raw, err := dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("sshd: %w", err)
	}
	c := &Client{wc: sshwire.NewConn(raw)}
	if err := c.auth(opts); err != nil {
		raw.Close()
		return nil, err
	}
	return c, nil
}

func (c *Client) auth(opts DialOptions) error {
	shell := opts.Shell
	if shell == "" {
		shell = "/bin/bash"
	}
	if err := c.wc.Send(&sshwire.Msg{T: sshwire.THello, User: opts.User, TTY: opts.TTY, Shell: shell}); err != nil {
		return err
	}
	m, err := c.wc.Recv()
	if err != nil {
		return err
	}
	if m.T != sshwire.TNonce {
		return fmt.Errorf("sshd: expected nonce, got %q", m.T)
	}
	c.Banner = m.Banner

	if opts.Key != nil {
		sig := ed25519.Sign(opts.Key, m.Nonce)
		pub := opts.Key.Public().(ed25519.PublicKey)
		if err := c.wc.Send(&sshwire.Msg{T: sshwire.TPubkey, Pub: pub, Sig: sig}); err != nil {
			return err
		}
		if _, err := c.wc.Recv(); err != nil { // pubkey-ok / pubkey-no either way
			return err
		}
	}
	// Ready sentinel: enter the PAM phase.
	if err := c.wc.Send(&sshwire.Msg{T: sshwire.TAnswer}); err != nil {
		return err
	}

	for {
		m, err := c.wc.Recv()
		if err != nil {
			return err
		}
		switch m.T {
		case sshwire.TPrompt:
			if opts.Responder == nil {
				return errors.New("sshd: prompt received but no responder configured")
			}
			ans, err := opts.Responder.Answer(m.Echo, m.Msg)
			if err != nil {
				return err
			}
			if err := c.wc.Send(&sshwire.Msg{T: sshwire.TAnswer, Value: ans}); err != nil {
				return err
			}
		case sshwire.TInfo:
			if opts.Responder != nil {
				opts.Responder.Info(m.Msg)
			}
		case sshwire.TResult:
			if !m.OK {
				return ErrDenied
			}
			c.authed = true
			return nil
		case sshwire.TError:
			return fmt.Errorf("sshd: server error: %s", m.Msg)
		default:
			return fmt.Errorf("sshd: unexpected frame %q", m.T)
		}
	}
}

// Exec runs a command in the session and returns its output.
func (c *Client) Exec(cmd string) (string, error) {
	if !c.authed {
		return "", errors.New("sshd: not authenticated")
	}
	if err := c.wc.Send(&sshwire.Msg{T: sshwire.TExec, Cmd: cmd}); err != nil {
		return "", err
	}
	m, err := c.wc.Recv()
	if err != nil {
		return "", err
	}
	if m.T != sshwire.TExecOut {
		return "", fmt.Errorf("sshd: unexpected frame %q", m.T)
	}
	return m.Out, nil
}

// OpenChannel opens a multiplexed session over the existing authenticated
// connection — no new authentication round (§5).
func (c *Client) OpenChannel() error {
	if !c.authed {
		return errors.New("sshd: not authenticated")
	}
	if err := c.wc.Send(&sshwire.Msg{T: sshwire.TChannel}); err != nil {
		return err
	}
	m, err := c.wc.Recv()
	if err != nil {
		return err
	}
	if m.T != sshwire.TChannelOK {
		return fmt.Errorf("sshd: channel refused: %q", m.T)
	}
	return nil
}

// Close ends the session politely.
func (c *Client) Close() error {
	if c.authed {
		c.wc.Send(&sshwire.Msg{T: sshwire.TBye})
	}
	return c.wc.Close()
}

package pam

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"openmfa/internal/eventstream"
	"openmfa/internal/radius"
)

// Mode is the token module's enforcement tier (§3.4): the four-tier,
// opt-in MFA enforcement policy "designed to assist with the transitioning
// of large user bases from single-factor authentication to multi-factor
// authentication".
type Mode string

// Enforcement modes.
const (
	// ModeOff deactivates the token module entirely.
	ModeOff Mode = "off"
	// ModePaired prompts only users who have paired a device.
	ModePaired Mode = "paired"
	// ModeCountdown is ModePaired plus a mandatory-acknowledgement
	// notice for unpaired users counting down to the deadline.
	ModeCountdown Mode = "countdown"
	// ModeFull prompts everyone; unpaired users are denied.
	ModeFull Mode = "full"
)

// ParseMode validates a mode string. Unknown strings are a configuration
// error: "if any configuration errors occur, the token module defaults to
// the fourth enforcement mode" — callers should fall back to ModeFull.
func ParseMode(s string) (Mode, bool) {
	switch Mode(strings.ToLower(strings.TrimSpace(s))) {
	case ModeOff:
		return ModeOff, true
	case ModePaired:
		return ModePaired, true
	case ModeCountdown:
		return ModeCountdown, true
	case ModeFull:
		return ModeFull, true
	}
	return ModeFull, false
}

// TokenConfig is the token module's PAM-configuration-file equivalent.
// "Any of these modes may be set during production operation and are in
// effect as soon as written to disk."
type TokenConfig struct {
	Mode Mode
	// Deadline is the date MFA becomes mandatory (countdown mode).
	Deadline time.Time
	// InfoURL is the tutorial page shown in the countdown notice.
	InfoURL string
}

// ConfigProvider yields the current configuration on every login attempt.
type ConfigProvider interface {
	TokenConfig() TokenConfig
}

// StaticConfig is a fixed in-memory ConfigProvider.
type StaticConfig TokenConfig

// TokenConfig implements ConfigProvider.
func (c StaticConfig) TokenConfig() TokenConfig { return TokenConfig(c) }

// FileConfig re-reads a small key=value file (mode=, deadline=, url=) when
// its mtime changes, giving the hot-reload behaviour the paper relies on.
// Malformed files yield ModeFull, the fail-safe default.
type FileConfig struct {
	Path string

	mu    sync.Mutex
	mtime time.Time
	cur   TokenConfig
}

// TokenConfig implements ConfigProvider.
func (f *FileConfig) TokenConfig() TokenConfig {
	f.mu.Lock()
	defer f.mu.Unlock()
	fi, err := os.Stat(f.Path)
	if err != nil {
		return TokenConfig{Mode: ModeFull}
	}
	if fi.ModTime().Equal(f.mtime) && !f.mtime.IsZero() {
		return f.cur
	}
	b, err := os.ReadFile(f.Path)
	if err != nil {
		return TokenConfig{Mode: ModeFull}
	}
	cfg, ok := parseTokenConfig(string(b))
	if !ok {
		cfg = TokenConfig{Mode: ModeFull}
	}
	f.mtime = fi.ModTime()
	f.cur = cfg
	return cfg
}

func parseTokenConfig(s string) (TokenConfig, bool) {
	cfg := TokenConfig{Mode: ModeFull}
	ok := true
	for _, line := range strings.Split(s, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		k, v, found := strings.Cut(line, "=")
		if !found {
			ok = false
			continue
		}
		v = strings.TrimSpace(v)
		switch strings.TrimSpace(k) {
		case "mode":
			m, valid := ParseMode(v)
			if !valid {
				ok = false
			}
			cfg.Mode = m
		case "deadline":
			t, err := time.Parse("2006-01-02", v)
			if err != nil {
				ok = false
				continue
			}
			cfg.Deadline = t
		case "url":
			cfg.InfoURL = v
		default:
			ok = false
		}
	}
	return cfg, ok
}

// PairingLookup resolves a user's MFA pairing type ("An LDAP query is
// used to check the user's MFA pairing type", Figure 2). The deployment's
// lookup is *otpd.Server: the entry the query reads is the user's token
// record, the same record the second factor validates against, so it
// replicates with it. A user without a confirmed token reads "none", and
// a token store that cannot be read returns an error.
type PairingLookup interface {
	Pairing(user string) (string, error)
}

// Token is in-house module 3 (§3.4, Figures 1 and 2): the second-factor
// challenge–response module. It consults the enforcement mode, looks up
// the user's pairing via LDAP, triggers SMS delivery through a null RADIUS
// request when needed, prompts the user for their six-digit code, and
// validates it against the back end through the round-robin RADIUS pool.
type Token struct {
	Config  ConfigProvider
	Pairing PairingLookup
	Radius  *radius.Pool
	// PromptText defaults to "Token Code: ".
	PromptText string
}

// Name implements Module.
func (m *Token) Name() string { return "pam_mfa_token" }

// Authenticate implements Module.
func (m *Token) Authenticate(ctx *Context) Result {
	cfg := m.Config.TokenConfig()
	mode := cfg.Mode

	// Countdown past its deadline escalates to full enforcement.
	if mode == ModeCountdown && !cfg.Deadline.IsZero() && ctx.now().After(endOfDay(cfg.Deadline)) {
		mode = ModeFull
	}

	if mode == ModeOff {
		// "The first mode ... deactivates the token module entirely,
		// exiting with success."
		return Success
	}

	pairing, err := m.Pairing.Pairing(ctx.User)
	if err != nil {
		// Account store unreadable: the pairing is unknown, so no mode
		// may waive the factor. Challenge without the SMS trigger: a soft or
		// hard token code still logs its user in, and everyone else
		// (SMS-paired or unpaired) fails closed at the back end.
		if ctx.Logger != nil {
			ctx.Logger.Warn("pairing lookup failed", "component", "pam", "trace", ctx.Trace,
				"module", m.Name(), "user", ctx.User, "err", err)
		}
		return m.challenge(ctx, "unknown")
	}
	paired := pairing != "none" && pairing != ""

	switch mode {
	case ModePaired:
		if !paired {
			// "the token module exits successfully without denying
			// entry to the user."
			return Success
		}
	case ModeCountdown:
		if !paired {
			// "The time delta between a configured deadline date and
			// the current date are used to calculate x" — calendar
			// days, so the number shown is stable all day.
			now := ctx.now()
			today := time.Date(now.Year(), now.Month(), now.Day(), 0, 0, 0, 0, time.UTC)
			days := int(endOfDay(cfg.Deadline).Sub(today).Hours() / 24)
			if days < 0 {
				days = 0
			}
			msg := fmt.Sprintf(
				"Multi-factor authentication becomes mandatory in %d day(s).\n"+
					"Pair a device before then: %s", days, cfg.InfoURL)
			// "the user must press return to acknowledge that they
			// have read and received this statement."
			if _, err := ctx.Conv.Prompt(true, msg+"\nPress return to acknowledge: "); err != nil {
				return SystemErr
			}
			return Success
		}
	case ModeFull:
		// Prompt regardless of pairing.
	}

	return m.challenge(ctx, pairing)
}

// challenge runs the Figure 2 flow.
func (m *Token) challenge(ctx *Context, pairing string) Result {
	var state []byte
	if pairing == "sms" {
		// "a null request is first sent to the LinOTP back end to
		// initiate a text message."
		var rejected bool
		var msg string
		err := m.exchange(ctx, "", nil, func(resp *radius.Packet) {
			rejected, msg = resp.Code == radius.AccessReject, replyMessage(resp)
			if s, ok := resp.Get(radius.AttrState); ok {
				state = bytes.Clone(s)
			}
		})
		if err != nil {
			if ctx.Logger != nil {
				ctx.Logger.Warn("sms trigger failed", "component", "pam", "trace", ctx.Trace,
					"module", m.Name(), "user", ctx.User, "err", err)
			}
			return SystemErr
		}
		if msg != "" {
			if err := ctx.Conv.Info(msg); err != nil {
				return SystemErr
			}
		}
		if rejected {
			return AuthErr
		}
	}

	prompt := m.PromptText
	if prompt == "" {
		prompt = "Token Code: "
	}
	code, err := ctx.Conv.Prompt(false, prompt)
	if err != nil {
		return SystemErr
	}
	var accepted bool
	var msg string
	err = m.exchange(ctx, code, state, func(resp *radius.Packet) {
		if accepted = resp.Code == radius.AccessAccept; !accepted {
			msg = replyMessage(resp)
		}
	})
	if err != nil {
		if ctx.Logger != nil {
			ctx.Logger.Warn("radius exchange failed", "component", "pam", "trace", ctx.Trace,
				"module", m.Name(), "user", ctx.User, "err", err)
		}
		return SystemErr
	}
	if accepted {
		ctx.MFAMethod = pairing
		m.publish(ctx, pairing, "accept")
		return Success
	}
	if msg != "" {
		ctx.Conv.Info(msg)
	}
	m.publish(ctx, pairing, "reject")
	return AuthErr
}

// publish announces the second-factor outcome on the analytics bus.
func (m *Token) publish(ctx *Context, pairing, result string) {
	if ctx.Events == nil {
		return
	}
	ctx.Events.Publish(eventstream.Event{
		Time: ctx.now(), Type: eventstream.TypeMFA, Component: "pam",
		Trace: ctx.Trace, User: ctx.User, Addr: ctx.PeerAddr(),
		Result: result, Method: pairing, MFA: result == "accept",
	})
}

func (m *Token) exchange(ctx *Context, code string, state []byte, read func(resp *radius.Packet)) error {
	span := ctx.startSpan("radius.rtt")
	defer span.End()
	return m.Radius.ExchangeRead(func(req *radius.Packet) {
		req.AddString(radius.AttrUserName, ctx.User)
		// A code over 128 bytes cannot be hidden; it is left out.
		_ = req.AddPassword(code, m.Radius.Secret())
		if state != nil {
			req.Add(radius.AttrState, state)
		}
		// Carry the connection's trace ID to the back end. Proxy-State
		// is opaque to RADIUS semantics and echoed in replies (RFC 2865
		// §5.33), which makes it a free trace-propagation channel.
		if ctx.Trace != "" {
			req.AddString(radius.AttrProxyState, ctx.Trace)
		}
	}, read)
}

// replyMessage joins the reply's Reply-Message lines with newlines,
// reading them in place.
func replyMessage(p *radius.Packet) string {
	var b strings.Builder
	lines := 0
	p.Range(func(typ byte, v []byte) bool {
		if typ == radius.AttrReplyMessage {
			if lines > 0 {
				b.WriteByte('\n')
			}
			b.Write(v)
			lines++
		}
		return true
	})
	return b.String()
}

func endOfDay(t time.Time) time.Time {
	return time.Date(t.Year(), t.Month(), t.Day(), 23, 59, 59, 0, time.UTC)
}

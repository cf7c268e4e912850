package rollout

import (
	"errors"
	"net"
	"strings"
	"time"

	"openmfa/internal/clock"
	"openmfa/internal/core"
	"openmfa/internal/eventstream"
	"openmfa/internal/geoip"
	"openmfa/internal/obs"
	"openmfa/internal/pam"
	"openmfa/internal/risk"
	"openmfa/internal/sms"
)

// deployment is the stack both simulators evaluate: core.New — the
// deployment everybody else gets — on a simulated clock. Logins enter at
// inf.Stack instead of dialling the login node (a TCP connection per
// simulated login would multiply the full-calendar run time); the sshd,
// portal and admin listeners core.New starts sit idle.
type deployment struct {
	inf    *core.Infrastructure // inf.Obs is the run's registry, inf.Events its bus
	clk    *clock.Sim
	engine *risk.Engine // the adaptive gate; nil without it
	// authDur is wall-clock (the sim clock jumps days at a time): how long
	// one login takes through the full PAM → RADIUS → otpd path.
	authDur *obs.Histogram
}

// internalNet is the standing exemption every deployment carries: internal
// system traffic moves freely (§3.4).
const internalNet = "permit : ALL : 10.128.0.0/16 : ALL\n"

// deploy starts a deployment whose clock reads start. exempt names the
// accounts with a standing whitelist entry (gateways, community
// automation); adaptive puts the risk gate into the PAM stack.
func deploy(start time.Time, events *eventstream.Bus, mode pam.Mode, exempt []string, adaptive bool) (*deployment, error) {
	d := &deployment{clk: clock.NewSim(start)}
	reg := obs.NewRegistry()
	d.authDur = reg.Histogram("rollout_auth_duration_seconds", nil)
	if adaptive {
		d.engine = risk.New(risk.Options{
			Geo: geoip.Synthetic(), Policy: risk.AdaptivePolicy(),
			Obs: reg, Events: events,
		})
	}
	rules := internalNet
	if len(exempt) > 0 {
		rules += "permit : " + strings.Join(exempt, " ") + " : ALL : ALL\n"
	}
	var err error
	d.inf, err = core.New(core.Options{
		Clock: d.clk, Obs: reg, Events: events, Risk: d.engine,
		Mode: mode, ExemptionRules: rules,
		// Every text arrives at once and none is lost: a simulated login
		// waits on the stack, not on a modelled handset.
		Carrier: &sms.CarrierModel{MaxAttempts: 1},
	})
	return d, err
}

// login runs one scheduled attempt: the clock moves to at, the principal's
// conversation meets the Figure 1 stack, the outcome feeds the risk engine
// as sshd's wiring does, and sshd's login event is published — stamped on
// the scheduled day. Per-user replay spacing can nudge at past midnight,
// but the reference aggregates attribute every login to the day it was
// scheduled, and the streaming aggregator must bucket identically. opened,
// when set, runs for a granted login before the event goes out and fills in
// the session's TTY and shell. Publishing draws no randomness.
func (d *deployment) login(day, at time.Time, user string, ip net.IP, conv *deviceConv, opened func(*eventstream.Event)) bool {
	d.clk.Set(at)
	if conv.handset != nil {
		// Watch the handset before anything can trigger the text.
		conv.inbox = conv.handset.Wait()
	}
	ctx := &pam.Context{
		User: user, RemoteAddr: ip, Service: "sshd",
		Conv: conv, Now: d.clk.Now,
		Trace: obs.NewTraceID(), Metrics: d.inf.Obs,
	}
	start := time.Now()
	granted := d.inf.Stack.Authenticate(ctx) == nil
	d.authDur.ObserveSince(start)

	ev := eventstream.Event{
		Time: at, Type: eventstream.TypeLogin, Component: "sshd",
		User: user, Addr: ip.String(), Result: "reject",
	}
	if at.Unix()/86400 != day.Unix()/86400 {
		ev.Time = day.Add(24*time.Hour - time.Second)
	}
	if granted {
		ev.Result, ev.MFA = "accept", conv.tokenOK
		if opened != nil {
			opened(&ev)
		}
	}
	if d.engine != nil {
		if granted {
			d.engine.RecordSuccess(user, ip, at)
		} else {
			d.engine.RecordFailure(user, ip, at)
		}
	}
	d.inf.Events.Publish(ev)
	return granted
}

// deviceConv plays the principal's side of the conversation: the account
// password, the code they hold, an empty line for a countdown
// acknowledgement.
type deviceConv struct {
	password string
	// code is what the principal's device shows right now. On an error
	// they hold no code and answer with guess.
	code  func(*deviceConv) (string, error)
	guess string
	// handset is where an SMS principal's token texts arrive (nil for
	// everybody else); inbox is this login's view of it, set by login.
	handset *sms.Phone
	inbox   <-chan sms.Message

	texted   bool // the stack announced a fresh token text
	prompted bool // a token prompt was shown
	tokenOK  bool // ...and answered with a held code
}

func (c *deviceConv) Prompt(echo bool, msg string) (string, error) {
	switch {
	case strings.Contains(msg, "Password"):
		return c.password, nil
	case strings.Contains(msg, "Token"):
		c.prompted = true
		code, err := c.code(c)
		if err != nil {
			return c.guess, nil
		}
		c.tokenOK = true
		return code, nil
	default:
		return "", nil
	}
}

// Info reads the token module's SMS notice: "has been sent" announces a
// fresh text, anything else (one is still valid) does not.
func (c *deviceConv) Info(msg string) error {
	c.texted = c.texted || strings.Contains(msg, "has been sent")
	return nil
}

// smsCode reads the code off the handset: out of the text this login
// triggered (the never-lose carrier delivers it; the wait is for the
// gateway's delivery goroutine), or out of the newest one received when
// the stack said that one still stands.
func (c *deviceConv) smsCode() (string, error) {
	var m sms.Message
	switch {
	case c.handset == nil:
		return "", errors.New("no handset")
	case c.texted:
		m = <-c.inbox
	default:
		var ok bool
		if m, ok = c.handset.Latest(); !ok {
			return "", errors.New("no sms received")
		}
	}
	f := strings.Fields(m.Body)
	return f[len(f)-1], nil
}

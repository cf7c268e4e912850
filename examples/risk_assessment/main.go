// Risk assessment: the paper's §6 growth path ("geolocation services,
// dynamic risk assessment"), built out on top of the same stack. A user
// with a stable Austin login history is admitted normally; a login from a
// brand-new country forces the second factor even for exempt accounts;
// impossible travel is refused outright. The program exits non-zero if
// any of the three outcomes does not hold.
package main

import (
	"fmt"
	"log"
	"net"
	"strings"
	"time"

	"openmfa/internal/core"
	"openmfa/internal/geoip"
	"openmfa/internal/idm"
	"openmfa/internal/otp"
	"openmfa/internal/risk"
	"openmfa/internal/sshd"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Every connection in this single-process demo reaches the login node
	// over loopback, so the geolocation table places loopback on the
	// Austin campus: alice's history and her first login share one
	// network, one country and one location.
	geo := geoip.Synthetic()
	if err := geo.AddRange("127.0.0.0/8", geoip.Location{Country: "US", Region: "Austin TX", Lat: 30.27, Lon: -97.74}); err != nil {
		return err
	}
	engine := risk.New(risk.Options{Geo: geo})
	inf, err := core.New(core.Options{
		// alice is whitelisted — normally she would never see a token
		// prompt.
		ExemptionRules: "permit : alice : ALL : ALL",
		// The risk gate joins the Figure 1 stack after the password, and
		// the login node feeds every outcome back into the engine.
		Risk: engine,
	})
	if err != nil {
		return err
	}
	defer inf.Close()

	if _, err := inf.CreateUser("alice", "a@hpc.example", "pw", idm.ClassUser); err != nil {
		return err
	}
	enr, err := inf.PairSoft("alice")
	if err != nil {
		return err
	}

	// Build a month of boring history: the campus network, this hour of
	// the day.
	now := time.Now().UTC()
	campus := net.ParseIP("127.0.0.1")
	for i := 0; i < 30; i++ {
		engine.RecordSuccess("alice", campus, now.AddDate(0, 0, -30+i))
	}

	// 1. Familiar pattern: exemption applies, password only.
	fmt.Println("— login from the usual campus network —")
	var prompted []string
	r := &sshd.FuncResponder{}
	r.Fn = func(echo bool, prompt string) (string, error) {
		prompted = append(prompted, strings.TrimSpace(prompt))
		if strings.Contains(prompt, "Password") {
			return "pw", nil
		}
		return otp.TOTP(enr.Secret, time.Now(), inf.OTP.OTPOptions())
	}
	c, err := sshd.Dial(inf.SSHAddr(), sshd.DialOptions{User: "alice", TTY: true, Responder: r})
	if err != nil {
		return fmt.Errorf("familiar login denied: %w", err)
	}
	c.Close()
	fmt.Printf("usual place: admitted, prompts=%v\n", prompted)
	if len(prompted) != 1 || !strings.Contains(prompted[0], "Password") {
		return fmt.Errorf("familiar login prompted %v, want the password only", prompted)
	}

	// The login node recorded that success. An attacker with the password
	// shows up from the other side of the planet within the hour:
	// impossible travel. Loopback cannot originate from China, so ask the
	// engine the question the gate would ask.
	fmt.Println("— same credentials from China 30 minutes later —")
	if err := expect(engine.Decide("alice", net.ParseIP("159.226.40.1"), time.Now().UTC().Add(30*time.Minute)),
		risk.OutcomeDeny, "the risk gate denies this attempt before the second factor"); err != nil {
		return err
	}

	// 3. A legitimate trip: Germany, a week later. Step-up, not deny —
	//    the gate suppresses alice's exemption and demands the token code
	//    she can provide.
	fmt.Println("— legitimate travel to Germany a week later —")
	return expect(engine.Decide("alice", net.ParseIP("141.20.1.2"), time.Now().UTC().AddDate(0, 0, 7)),
		risk.OutcomeStepUp, "exemption suppressed; the token prompt stands between the password and entry")
}

// expect prints a decision and fails unless it has the wanted outcome.
func expect(d risk.Decision, want risk.Outcome, consequence string) error {
	fmt.Printf("  decision: %s (score %.2f) %v\n", d.Outcome, d.Score, d.ReasonStrings())
	if d.Outcome != want {
		return fmt.Errorf("decision %s, want %s", d.Outcome, want)
	}
	fmt.Println("  → " + consequence)
	return nil
}

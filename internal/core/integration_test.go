package core

import (
	"fmt"
	"io"
	"net/http"
	"net/http/cookiejar"
	"net/url"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"openmfa/internal/clock"
	"openmfa/internal/idm"
	"openmfa/internal/otp"
	"openmfa/internal/portal"
	"openmfa/internal/sshd"
)

// TestPortalPairThenSSHLogin drives the complete §3.5 user journey over
// real HTTP and the SSH-substitute wire: register → log in to the portal →
// get redirected to the splash → pair a soft token by "scanning" the QR →
// confirm with a code → log in to the login node with MFA.
func TestPortalPairThenSSHLogin(t *testing.T) {
	inf := newInfra(t, Options{})
	sim := inf.Clock.(*clock.Sim)
	if _, err := inf.CreateUser("grace", "grace@hpc.example", "pw", idm.ClassUser); err != nil {
		t.Fatal(err)
	}

	jar, _ := cookiejar.New(nil)
	browser := &http.Client{Jar: jar, CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	post := func(path string, form url.Values) (int, string) {
		resp, err := browser.PostForm(inf.PortalURL()+path, form)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	// Portal login: unpaired → splash redirect.
	status, _ := post("/login", url.Values{"username": {"grace"}, "password": {"pw"}})
	if status != http.StatusSeeOther {
		t.Fatalf("login status = %d", status)
	}

	// Start a soft pairing; the page carries the QR payload.
	status, body := post("/pair/start", url.Values{"type": {"soft"}})
	if status != 200 {
		t.Fatalf("pair start = %d %q", status, body)
	}
	state := regexp.MustCompile(`state: (\S+)`).FindStringSubmatch(body)
	uri := regexp.MustCompile(`QR payload: (\S+)`).FindStringSubmatch(body)
	if state == nil || uri == nil {
		t.Fatalf("pair page missing state/uri: %q", body)
	}
	// The rendered QR symbol itself must be on the page.
	if !strings.Contains(body, "██") {
		t.Fatal("no QR symbol rendered on the pairing page")
	}

	// "Scan" the QR and confirm with the app's current code.
	key, err := otp.ParseURI(uri[1])
	if err != nil {
		t.Fatal(err)
	}
	code, _ := otp.TOTP(key.Secret, sim.Now(), key.Options)
	status, body = post("/pair/confirm", url.Values{"state": {state[1]}, "code": {code}})
	if status != 200 || !strings.Contains(body, "paired: soft") {
		t.Fatalf("confirm = %d %q", status, body)
	}

	// The pairing is now visible to the PAM LDAP lookup: SSH login
	// demands the token and admits with it.
	sim.Advance(31 * time.Second)
	r := &sshd.FuncResponder{}
	sawToken := false
	r.Fn = func(echo bool, prompt string) (string, error) {
		if strings.Contains(prompt, "Password") {
			return "pw", nil
		}
		sawToken = true
		c, _ := otp.TOTP(key.Secret, sim.Now(), key.Options)
		return c, nil
	}
	c, err := sshd.Dial(inf.SSHAddr(), sshd.DialOptions{User: "grace", TTY: true, Responder: r})
	if err != nil {
		t.Fatalf("ssh login after portal pairing failed: %v", err)
	}
	c.Close()
	if !sawToken {
		t.Fatal("token never prompted after pairing")
	}

	// Unpair through the portal (possession proof) and verify full-mode
	// SSH now denies.
	sim.Advance(31 * time.Second)
	code2, _ := otp.TOTP(key.Secret, sim.Now(), key.Options)
	status, body = post("/unpair/confirm", url.Values{"code": {code2}})
	if status != 200 {
		t.Fatalf("unpair = %d %q", status, body)
	}
	if _, err := sshd.Dial(inf.SSHAddr(), sshd.DialOptions{User: "grace", Responder: r}); err == nil {
		t.Fatal("unpaired user admitted in full mode")
	}
}

// TestPairingIsOneApply: the token record is the pairing, so every
// pairing change is one Apply to otpd's store: each Pair* call and
// Unpair, the portal's confirm (the check that accepts the code also
// confirms the token) and the portal's unpair, by emailed link and after
// the possession check of unpair-by-code.
func TestPairingIsOneApply(t *testing.T) {
	var mail struct {
		sync.Mutex
		body string
	}
	inf := newInfra(t, Options{Email: portal.EmailFunc(func(_, _, body string) error {
		mail.Lock()
		defer mail.Unlock()
		mail.body = body
		return nil
	})})
	sim := inf.Clock.(*clock.Sim)
	applies := func(what string, do func() error) {
		t.Helper()
		before := inf.OTPStore().LSN()
		if err := do(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if n := inf.OTPStore().LSN() - before; n != 1 {
			t.Errorf("%s: %d Applies, want 1", what, n)
		}
	}
	for _, u := range []string{"soft", "sms", "hard", "train", "grace"} {
		if _, err := inf.CreateUser(u, u+"@x", "pw", idm.ClassUser); err != nil {
			t.Fatal(err)
		}
	}
	if err := inf.OTP.ImportHardToken("C200-0042", []byte("fob-secret-0042-----")); err != nil {
		t.Fatal(err)
	}
	applies("PairSoft", func() error { _, err := inf.PairSoft("soft"); return err })
	applies("PairSMS", func() error { _, _, err := inf.PairSMS("sms", "5125550142"); return err })
	applies("PairHard", func() error { _, err := inf.PairHard("hard", "C200-0042"); return err })
	applies("PairTraining", func() error { return inf.PairTraining("train", "424242") })
	applies("Unpair", func() error { return inf.Unpair("soft") })

	var secret []byte
	var state string
	jar, _ := cookiejar.New(nil)
	browser := &http.Client{Jar: jar, CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	post := func(path string, form url.Values) error {
		resp, err := browser.PostForm(inf.PortalURL()+path, form)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode >= 400 {
			return fmt.Errorf("%s = %d %q", path, resp.StatusCode, b)
		}
		if m := regexp.MustCompile(`QR payload: (\S+)`).FindSubmatch(b); m != nil {
			key, err := otp.ParseURI(string(m[1]))
			if err != nil {
				return err
			}
			secret = key.Secret
			state = string(regexp.MustCompile(`state: (\S+)`).FindSubmatch(b)[1])
		}
		return nil
	}
	code := func() string {
		c, _ := otp.TOTP(secret, sim.Now(), inf.OTP.OTPOptions())
		return c
	}
	pair := func() {
		t.Helper()
		if err := post("/pair/start", url.Values{"type": {"soft"}}); err != nil {
			t.Fatal(err)
		}
		applies("portal confirm", func() error {
			return post("/pair/confirm", url.Values{"state": {state}, "code": {code()}})
		})
		sim.Advance(31 * time.Second)
	}
	if err := post("/login", url.Values{"username": {"grace"}, "password": {"pw"}}); err != nil {
		t.Fatal(err)
	}
	pair()
	before := inf.OTPStore().LSN()
	if err := post("/unpair/confirm", url.Values{"code": {code()}}); err != nil {
		t.Fatal(err)
	}
	if n := inf.OTPStore().LSN() - before; n != 2 {
		t.Errorf("portal unpair by code: %d Applies, want 2 (the possession check, then the unpair)", n)
	}
	pair()
	if err := post("/unpair/email", nil); err != nil {
		t.Fatal(err)
	}
	mail.Lock()
	link := regexp.MustCompile(`/unpair/oob\?token=\S+`).FindString(mail.body)
	mail.Unlock()
	applies("portal unpair by link", func() error {
		resp, err := http.Get(inf.PortalURL() + link)
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			return fmt.Errorf("unpair link = %d", resp.StatusCode)
		}
		return nil
	})
	if p, _ := inf.OTP.Pairing("grace"); p != "none" {
		t.Fatalf("pairing after unpair = %q", p)
	}
}

package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"openmfa/internal/clock"
	"openmfa/internal/faultnet"
	"openmfa/internal/idm"
	"openmfa/internal/leakcheck"
	"openmfa/internal/obs"
	"openmfa/internal/otp"
	"openmfa/internal/otpd"
	"openmfa/internal/pam"
	"openmfa/internal/sshd"
	"openmfa/internal/store/repl"
)

// TestLeaderFailoverUnderLoginStorm is the replication capstone: two full
// otpd deployments — a leader with synchronous replication (MinSync=1)
// and a standby following it — take a login storm, the replication link
// is partitioned with faultnet, the leader is killed mid-storm, and the
// standby is promoted. The two invariants a failover must keep:
//
//   - no OTP is ever accepted twice: every code the dead leader accepted
//     must bounce off the promoted standby's replay protection, because
//     MinSync=1 means acceptance waited for the consumption to replicate;
//   - no lockout count is lost: failures accrued on the dead leader must
//     still count on the standby, so an attacker cannot reset their
//     budget by waiting for a failover.
func TestLeaderFailoverUnderLoginStorm(t *testing.T) {
	leakcheck.Check(t)
	sim := clock.NewSim(t0)
	key := []byte("0123456789abcdef0123456789abcdef") // shared: sealed secrets must replicate
	reg1 := obs.NewRegistry()
	reg2 := obs.NewRegistry()
	chaos := faultnet.New(faultnet.Config{Seed: 2024, Obs: reg2})

	// Leader deployment. Built directly (not via newInfra) because the
	// test kills it mid-storm; the sync.Once keeps the deferred cleanup
	// from double-closing.
	inf1, err := New(Options{
		Clock:            sim,
		Obs:              reg1,
		EncryptionKey:    key,
		LockoutThreshold: 5,
		RadiusTimeout:    750 * time.Millisecond, // must outlast the sync gate below
		ReplListen:       "127.0.0.1:0",
		ReplMinSync:      1,
		ReplSyncTimeout:  500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	killLeader := func() { once.Do(func() { inf1.Close() }) }
	defer killLeader()
	replAddr := inf1.ReplLeader.Addr()

	// Standby deployment: same key, same threshold, its replication dial
	// routed through the fault layer so the link can be partitioned.
	inf2 := newInfra(t, Options{
		Clock:            sim,
		Obs:              reg2,
		FaultNet:         chaos,
		EncryptionKey:    key,
		LockoutThreshold: 5,
		ReplFollow:       replAddr,
	})
	waitUntil(t, "standby connected", func() bool { return inf1.ReplLeader.Followers() == 1 })

	// Accounts exist on both deployments (IDM is per-site state); tokens,
	// and with them the pairings, are enrolled only on the leader — the
	// standby must get them via replication. The standby's own store
	// refuses local enrolment.
	users := []string{"storm0", "storm1", "storm2", "fresh0", "fresh1", "lockme"}
	secrets := map[string][]byte{}
	for _, u := range users {
		if _, err := inf1.CreateUser(u, u+"@x", "pw", idm.ClassUser); err != nil {
			t.Fatal(err)
		}
		if _, err := inf2.CreateUser(u, u+"@x", "pw", idm.ClassUser); err != nil {
			t.Fatal(err)
		}
		enr, err := inf1.PairSoft(u)
		if err != nil {
			t.Fatal(err)
		}
		secrets[u] = enr.Secret
	}
	if _, err := inf2.PairSoft("storm0"); err == nil {
		t.Fatal("standby accepted a local enrolment; follower fencing is off")
	}
	code := func(user string) string {
		c, _ := otp.TOTP(secrets[user], sim.Now(), inf1.OTP.OTPOptions())
		return c
	}
	login := func(addr, user, code string) error {
		r := &sshd.FuncResponder{}
		r.Fn = func(echo bool, prompt string) (string, error) {
			if strings.Contains(prompt, "Password") {
				return "pw", nil
			}
			return code, nil
		}
		c, err := sshd.Dial(addr, DialOpts(user, r))
		if err != nil {
			return err
		}
		defer c.Close()
		out, err := c.Exec("whoami")
		if err != nil {
			return err
		}
		if out != user {
			return fmt.Errorf("exec returned %q", out)
		}
		return nil
	}

	// Phase 1 — healthy storm. Every accepted login's consumed counter is
	// on the standby before the login returns (MinSync=1). The clock is
	// never advanced again, so each accepted code stays time-valid for the
	// replay attempt in phase 3: only replay protection can reject it.
	accepted := map[string]string{}
	var wg sync.WaitGroup
	var mu sync.Mutex
	for _, u := range []string{"storm0", "storm1", "storm2"} {
		wg.Add(1)
		go func(u string) {
			defer wg.Done()
			c := code(u)
			if err := login(inf1.SSHAddr(), u, c); err != nil {
				t.Errorf("healthy login %s: %v", u, err)
				return
			}
			mu.Lock()
			accepted[u] = c
			mu.Unlock()
		}(u)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	// Four wrong codes for lockme: one short of the threshold, all
	// replicated synchronously.
	for i := 0; i < 4; i++ {
		res, err := inf1.OTP.Check("lockme", "000000")
		if err != nil || res.OK || res.LockedOut {
			t.Fatalf("lockme failure %d: res=%+v err=%v", i, res, err)
		}
	}
	if l1, l2 := inf1.OTPStore().LSN(), inf2.OTPStore().LSN(); l1 != l2 {
		t.Fatalf("standby lagging after synchronous storm: leader lsn %d, standby %d", l1, l2)
	}

	// Phase 2 — partition the replication link, then kill the leader in
	// the middle of a second storm. With the standby unreachable the sync
	// gate must fail every login closed: nothing is accepted that the
	// standby has not seen.
	chaos.Partition(replAddr)
	waitUntil(t, "leader lost its follower", func() bool { return inf1.ReplLeader.Followers() == 0 })
	if err := login(inf1.SSHAddr(), "fresh0", code("fresh0")); err == nil {
		t.Fatal("login accepted while the standby was partitioned away (MinSync gate is off)")
	}
	if v := reg1.Counter("repl_wait_timeouts_total").Value(); v == 0 {
		t.Fatal("sync gate never timed out during the partition")
	}
	stormErrs := make([]error, 4)
	for i := range stormErrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			u := fmt.Sprintf("fresh%d", i%2)
			stormErrs[i] = login(inf1.SSHAddr(), u, code(u))
		}(i)
	}
	time.Sleep(150 * time.Millisecond) // mid-storm...
	killLeader()                       // ...the leader dies
	wg.Wait()
	for i, err := range stormErrs {
		if err == nil {
			t.Fatalf("storm login %d accepted during partition/leader death", i)
		}
	}

	// Phase 3 — promote the standby: stop following, StartLeader on the
	// same store. The epoch bump (1 → 2) fences the dead leader's era and
	// re-enables local writes with no unfenced window in between.
	chaos.Heal(replAddr)
	inf2.ReplFollower.Stop()
	promoted, err := repl.StartLeader(inf2.OTPStore(), repl.LeaderOptions{Addr: "127.0.0.1:0", Obs: reg2})
	if err != nil {
		t.Fatal(err)
	}
	defer promoted.Close()
	if e := inf2.OTPStore().Epoch(); e != 2 {
		t.Fatalf("promoted epoch = %d, want 2", e)
	}

	// Zero double-accepted OTPs: every code the dead leader accepted is
	// still time-valid, and the promoted standby must reject each one on
	// its replicated consumption mark alone.
	for u, c := range accepted {
		if err := login(inf2.SSHAddr(), u, c); err == nil {
			t.Fatalf("OTP for %s accepted twice across the failover", u)
		}
	}
	// The promoted node is a real leader, not a read-only husk: a code
	// that was never accepted anywhere (fresh0's phase-2 attempts all
	// failed closed) authenticates end to end through the standby stack.
	if err := login(inf2.SSHAddr(), "fresh0", code("fresh0")); err != nil {
		t.Fatalf("fresh login on promoted standby: %v", err)
	}

	// Zero lost lockout increments: the four failures from phase 1 plus
	// this one must cross the threshold of five exactly now.
	res, err := inf2.OTP.Check("lockme", "000000")
	if err != nil || !res.LockedOut {
		t.Fatalf("5th failure after failover: res=%+v err=%v (lockout count lost)", res, err)
	}
	if _, err := inf2.OTP.Check("lockme", code("lockme")); !errors.Is(err, otpd.ErrLockedOut) {
		t.Fatalf("locked-out user validated after failover: %v", err)
	}

	// The moving parts really moved: frames shipped and applied, and the
	// partition was injected by faultnet, not a coincidence.
	if v := reg1.Counter("repl_frames_shipped_total").Value(); v == 0 {
		t.Fatal("leader shipped no frames")
	}
	if v := reg2.Counter("repl_frames_applied_total").Value(); v == 0 {
		t.Fatal("standby applied no frames")
	}
	if v := reg2.Counter("faultnet_injected_total", "kind", "partition").Value(); v == 0 {
		t.Fatal("faultnet partition never hit the replication link")
	}
}

// waitUntil polls cond for up to 10 real seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestFailoverKeepsPairings: pairings made and removed on the leader
// after the standby started are on the standby when it is promoted,
// because the pairing is the replicated token record. One user of each
// token type is paired and one more is paired and then unpaired; the
// promoted standby then serves logins in each enforcement mode. No paired
// user gets in without a factor in any mode that enforces one (off is the
// paper's documented open mode), each still gets in with it, and the
// unpaired user is not challenged for a token they no longer hold.
func TestFailoverKeepsPairings(t *testing.T) {
	sim := clock.NewSim(t0)
	key := []byte("0123456789abcdef0123456789abcdef")
	inf1, err := New(Options{Clock: sim, EncryptionKey: key, ReplListen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	killLeader := func() { once.Do(func() { inf1.Close() }) }
	defer killLeader()
	inf2 := newInfra(t, Options{Clock: sim, EncryptionKey: key, ReplFollow: inf1.ReplLeader.Addr()})
	waitUntil(t, "standby connected", func() bool { return inf1.ReplLeader.Followers() == 1 })

	for _, u := range []string{"soft", "sms", "hard", "training", "gone"} {
		for _, inf := range []*Infrastructure{inf1, inf2} {
			if _, err := inf.CreateUser(u, u+"@x", "pw", idm.ClassUser); err != nil {
				t.Fatal(err)
			}
		}
	}
	fob := []byte("fob-secret-0100-----")
	if err := inf1.OTP.ImportHardToken("C200-0100", fob); err != nil {
		t.Fatal(err)
	}
	secrets := map[string][]byte{"hard": fob}
	enr, err := inf1.PairSoft("soft")
	if err != nil {
		t.Fatal(err)
	}
	secrets["soft"] = enr.Secret
	if enr, _, err = inf1.PairSMS("sms", "5125550100"); err != nil {
		t.Fatal(err)
	}
	secrets["sms"] = enr.Secret
	if _, err := inf2.SMS.Register("5125550100"); err != nil { // the phone, on the standby's carrier
		t.Fatal(err)
	}
	if _, err := inf1.PairHard("hard", "C200-0100"); err != nil {
		t.Fatal(err)
	}
	if err := inf1.PairTraining("training", "424242"); err != nil {
		t.Fatal(err)
	}
	if _, err := inf1.PairSoft("gone"); err != nil {
		t.Fatal(err)
	}
	if err := inf1.Unpair("gone"); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "standby caught up", func() bool { return inf2.OTPStore().LSN() == inf1.OTPStore().LSN() })

	killLeader()
	inf2.ReplFollower.Stop()
	promoted, err := repl.StartLeader(inf2.OTPStore(), repl.LeaderOptions{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer promoted.Close()

	code := func(user string) string {
		if user == "training" {
			return "424242"
		}
		c, _ := otp.TOTP(secrets[user], sim.Now(), inf2.OTP.OTPOptions())
		return c
	}
	// login answers the password prompt with the password and every other
	// prompt with answer; it reports whether a token code was asked for.
	login := func(user, answer string) (challenged bool, err error) {
		r := &sshd.FuncResponder{}
		r.Fn = func(echo bool, prompt string) (string, error) {
			if strings.Contains(prompt, "Password") {
				return "pw", nil
			}
			challenged = challenged || strings.Contains(prompt, "Token Code")
			return answer, nil
		}
		c, err := sshd.Dial(inf2.SSHAddr(), DialOpts(user, r))
		if err == nil {
			c.Close()
		}
		return challenged, err
	}
	for _, mode := range []pam.Mode{pam.ModeOff, pam.ModePaired, pam.ModeCountdown, pam.ModeFull} {
		t.Run(string(mode), func(t *testing.T) {
			inf2.Mode.Set(pam.TokenConfig{Mode: mode, Deadline: t0.AddDate(0, 1, 0), InfoURL: "https://portal.example"})
			sim.Advance(31 * time.Second) // a fresh code for every row
			for _, u := range []string{"soft", "sms", "hard", "training"} {
				_, err := login(u, "")
				if mode == pam.ModeOff {
					if err != nil {
						t.Errorf("%s without a factor in off mode: %v", u, err)
					}
					continue
				}
				if !errors.Is(err, sshd.ErrDenied) {
					t.Errorf("%s got in without a factor: err = %v", u, err)
				}
				if _, err := login(u, code(u)); err != nil {
					t.Errorf("%s with its factor: %v", u, err)
				}
			}
			challenged, err := login("gone", "")
			switch {
			case mode == pam.ModeFull:
				if !errors.Is(err, sshd.ErrDenied) {
					t.Errorf("unpaired user in full mode: err = %v, want denied", err)
				}
			case err != nil:
				t.Errorf("unpaired user: %v", err)
			case challenged:
				t.Error("unpaired user challenged for a token they no longer hold")
			}
		})
	}
}

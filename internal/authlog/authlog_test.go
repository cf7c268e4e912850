package authlog

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"openmfa/internal/racecheck"
)

var t0 = time.Date(2016, 10, 4, 8, 0, 0, 0, time.UTC)

func ev(typ EventType, user string, at time.Time) Event {
	return Event{Time: at, Type: typ, User: user, Addr: "129.114.0.5", Port: 50022,
		TTY: true, Shell: "/bin/bash", Detail: "SHA256:abcd"}
}

func TestEventStringParseRoundTrip(t *testing.T) {
	e := ev(AcceptedPublickey, "cproctor", t0)
	got, err := ParseLine(e.String())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Time.Equal(e.Time) || got.Type != e.Type || got.User != e.User ||
		got.Addr != e.Addr || got.Port != e.Port || got.TTY != e.TTY ||
		got.Shell != e.Shell || got.Detail != e.Detail {
		t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", e, got)
	}
}

func TestParseLineErrors(t *testing.T) {
	bad := []string{
		"",
		"garbage",
		"2016-10-04T08:00:00Z no-for-here",
		"not-a-time Accepted publickey for u from 1.2.3.4 port 1 tty=no shell=s detail=\"\"",
		"2016-10-04T08:00:00Z Accepted publickey for u missing-from",
		"2016-10-04T08:00:00Z Accepted publickey for u from 1.2.3.4 port banana tty=no shell=s detail=\"\"",
	}
	for _, l := range bad {
		if _, err := ParseLine(l); err == nil {
			t.Errorf("ParseLine(%q) succeeded, want error", l)
		}
	}
}

func TestFindPubkeySuccess(t *testing.T) {
	l, err := New("", 16)
	if err != nil {
		t.Fatal(err)
	}
	l.Append(ev(AcceptedPublickey, "storm", t0))
	l.Append(ev(AcceptedPassword, "hanlon", t0.Add(time.Second)))

	now := t0.Add(5 * time.Second)
	if !l.FindPubkeySuccess("storm", "129.114.0.5", now, time.Minute) {
		t.Fatal("pubkey success not found")
	}
	if l.FindPubkeySuccess("hanlon", "129.114.0.5", now, time.Minute) {
		t.Fatal("password login reported as pubkey success")
	}
	if l.FindPubkeySuccess("storm", "10.0.0.1", now, time.Minute) {
		t.Fatal("wrong address matched")
	}
	// Empty addr matches any origin.
	if !l.FindPubkeySuccess("storm", "", now, time.Minute) {
		t.Fatal("empty addr should match")
	}
	// Outside the window the event must be ignored.
	if l.FindPubkeySuccess("storm", "129.114.0.5", t0.Add(2*time.Hour), time.Minute) {
		t.Fatal("stale event matched")
	}
}

// A backward clock step between two appends must not hide a pubkey success
// that is still inside the window: the answer may not depend on the stamp
// of an unrelated record.
func TestFindPubkeySuccessUnrelatedRecordStampedEarlier(t *testing.T) {
	l, _ := New("", 16)
	l.Append(ev(AcceptedPublickey, "storm", t0))
	l.Append(ev(AcceptedPassword, "hanlon", t0.Add(-2*time.Minute))) // NTP stepped back
	if !l.FindPubkeySuccess("storm", "129.114.0.5", t0.Add(time.Second), 30*time.Second) {
		t.Fatal("pubkey success 1 s old not found behind an older-stamped record")
	}
}

// A record stamped after now (the query's clock stepped back) is outside
// the window in the fail-closed direction: the password is asked for.
func TestFindPubkeySuccessFutureRecordFailsClosed(t *testing.T) {
	l, _ := New("", 16)
	l.Append(ev(AcceptedPublickey, "storm", t0))
	if l.FindPubkeySuccess("storm", "129.114.0.5", t0.Add(-time.Hour), 30*time.Second) {
		t.Fatal("pubkey success stamped an hour after now waived the first factor")
	}
	if !l.FindPubkeySuccess("storm", "129.114.0.5", t0.Add(-time.Second), 30*time.Second) {
		t.Fatal("pubkey success 1 s ahead of now should still match")
	}
}

// refFindPubkeySuccess is the newest-first window walk the index replaced,
// kept as the reference: on monotone stamps the two must agree.
func refFindPubkeySuccess(l *Log, user, addr string, now time.Time, window time.Duration) bool {
	found := false
	l.ScanRecent(func(e Event) bool {
		if now.Sub(e.Time) > window {
			return false // newest-first; everything older is out of window
		}
		if e.Type == AcceptedPublickey && e.User == user && (addr == "" || e.Addr == addr) {
			found = true
			return false
		}
		return true
	})
	return found
}

// Property: over random monotone append sequences that wrap a small ring
// many times, every query agrees with the reference walk.
func TestFindPubkeySuccessMatchesReferenceWalk(t *testing.T) {
	users := []string{"storm", "hanlon", "cproctor", "nosuch"}
	addrs := []string{"10.0.0.1", "10.0.0.2", "10.0.0.3", ""}
	types := []EventType{AcceptedPublickey, AcceptedPublickey, AcceptedPassword, SessionOpen, SessionClose}
	// The ring spans 8-16 events at ~1 s apart: the windows fall on both
	// sides of that span.
	windows := []time.Duration{0, time.Second, 4 * time.Second, 10 * time.Second, time.Hour}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		size := 8 << rng.Intn(2)
		l, _ := New("", size)
		at := t0
		for i := 0; i < 50*size; i++ {
			at = at.Add(time.Duration(rng.Intn(2000)) * time.Millisecond)
			l.Append(Event{Time: at, Type: types[rng.Intn(len(types))],
				User: users[rng.Intn(len(users)-1)], Addr: addrs[rng.Intn(len(addrs)-1)]})
			for q := 0; q < 4; q++ {
				user, addr := users[rng.Intn(len(users))], addrs[rng.Intn(len(addrs))]
				now := at.Add(time.Duration(rng.Intn(3000)) * time.Millisecond)
				window := windows[rng.Intn(len(windows))]
				got := l.FindPubkeySuccess(user, addr, now, window)
				if want := refFindPubkeySuccess(l, user, addr, now, window); got != want {
					t.Fatalf("seed %d append %d: FindPubkeySuccess(%q, %q, +%v, %v) = %v, reference walk %v",
						seed, i, user, addr, now.Sub(at), window, got, want)
				}
			}
		}
	}
}

// The index holds at most two entries per retained record, so it stays
// bounded by the ring without any pruning.
func TestPubkeyIndexBoundedByRing(t *testing.T) {
	const size = 16
	l, _ := New("", size)
	for i := 0; i < 100*size; i++ {
		e := ev(AcceptedPublickey, fmt.Sprintf("u%d", i), t0)
		e.Addr = fmt.Sprintf("10.0.%d.%d", i/256, i%256)
		l.Append(e)
	}
	if n := len(l.pubkey); n > 2*size {
		t.Fatalf("index holds %d entries after %d appends to a %d-slot ring, want <= %d",
			n, 100*size, size, 2*size)
	}
	if l.FindPubkeySuccess("u0", "", t0, time.Minute) {
		t.Fatal("evicted record still found")
	}
	if !l.FindPubkeySuccess(fmt.Sprintf("u%d", 100*size-1), "", t0, time.Minute) {
		t.Fatal("newest record not found")
	}
}

// Concurrent appenders and queriers under -race: each writer's own pubkey
// success is visible to its next query.
func TestConcurrentAppendAndFind(t *testing.T) {
	const writers, rounds = 4, 200
	l, _ := New("", 2*writers*rounds) // nothing is evicted
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			user := fmt.Sprintf("u%d", w)
			for i := 0; i < rounds; i++ {
				at := t0.Add(time.Duration(i) * time.Second)
				l.Append(ev(SessionOpen, user, at))
				l.Append(ev(AcceptedPublickey, user, at))
				if !l.FindPubkeySuccess(user, "129.114.0.5", at, 30*time.Second) {
					errs <- fmt.Errorf("writer %d round %d: own pubkey success not found", w, i)
					return
				}
				l.FindPubkeySuccess("nosuch", "", at, 30*time.Second)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// The login path's two calls allocate nothing: the lookup, and an Append
// of a non-pubkey record (here also evicting an indexed one) with no file
// sink.
func TestLoginPathZeroAlloc(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("alloc-count assertions are meaningless under -race")
	}
	l, _ := New("", 64)
	for i := 0; i < 64; i++ {
		l.Append(ev(AcceptedPublickey, fmt.Sprintf("u%d", i), t0))
	}
	now := t0.Add(time.Second)
	if got := testing.AllocsPerRun(500, func() {
		l.FindPubkeySuccess("u63", "129.114.0.5", now, 30*time.Second)
		l.FindPubkeySuccess("nosuch", "", now, 30*time.Second)
	}); got != 0 {
		t.Errorf("FindPubkeySuccess allocs/op = %.1f, want 0", got)
	}
	e := ev(SessionOpen, "storm", now)
	if got := testing.AllocsPerRun(500, func() { l.Append(e) }); got != 0 {
		t.Errorf("non-pubkey Append allocs/op = %.1f, want 0", got)
	}
}

func TestRingEviction(t *testing.T) {
	l, _ := New("", 4)
	for i := 0; i < 10; i++ {
		l.Append(ev(AcceptedPublickey, fmt.Sprintf("u%d", i), t0.Add(time.Duration(i)*time.Second)))
	}
	var seen []string
	l.ScanRecent(func(e Event) bool {
		seen = append(seen, e.User)
		return true
	})
	if len(seen) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(seen))
	}
	// Newest first.
	want := []string{"u9", "u8", "u7", "u6"}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("seen = %v, want %v", seen, want)
		}
	}
}

func TestScanRecentEarlyStop(t *testing.T) {
	l, _ := New("", 16)
	for i := 0; i < 8; i++ {
		l.Append(ev(SessionOpen, fmt.Sprintf("u%d", i), t0))
	}
	n := 0
	l.ScanRecent(func(Event) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("scan visited %d events, want 3", n)
	}
}

func TestFileSinkAndReadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "secure.log")
	l, err := New(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	l.Append(ev(AcceptedPublickey, "storm", t0))
	l.Append(ev(SessionOpen, "storm", t0.Add(time.Second)))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	events, bad, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bad != 0 || len(events) != 2 {
		t.Fatalf("ReadFile = %d events, %d bad", len(events), bad)
	}
	if events[0].User != "storm" || events[0].Type != AcceptedPublickey {
		t.Fatalf("event[0] = %+v", events[0])
	}
}

func TestReadFileSkipsMalformed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "secure.log")
	l, _ := New(path, 4)
	l.Append(ev(AcceptedPassword, "u", t0))
	l.Close()
	// Append garbage by hand.
	f, _ := New(path, 4)
	f.Close()
	if err := appendRaw(path, "not a log line\n"); err != nil {
		t.Fatal(err)
	}
	events, bad, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || bad != 1 {
		t.Fatalf("events=%d bad=%d", len(events), bad)
	}
}

func appendRaw(path, s string) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.WriteString(s)
	return err
}

func TestEventStringDetailQuoting(t *testing.T) {
	e := ev(AcceptedPublickey, "u", t0)
	e.Detail = `tricky "quoted" detail with spaces`
	got, err := ParseLine(e.String())
	if err != nil {
		t.Fatal(err)
	}
	if got.Detail != e.Detail {
		t.Fatalf("detail = %q, want %q", got.Detail, e.Detail)
	}
}

// Property: String/ParseLine round-trips events with arbitrary printable
// user names and details.
func TestRoundTripProperty(t *testing.T) {
	f := func(userRaw, detail string, port uint16, tty bool) bool {
		user := sanitizeToken(userRaw)
		if user == "" {
			user = "u"
		}
		e := Event{Time: t0, Type: AcceptedToken, User: user, Addr: "10.1.2.3",
			Port: int(port), TTY: tty, Shell: "/bin/sh", Detail: detail}
		got, err := ParseLine(e.String())
		return err == nil && got.User == user && got.Detail == detail && got.Port == int(port) && got.TTY == tty
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// sanitizeToken strips characters that are structurally meaningful in the
// log format; real usernames never contain them.
func sanitizeToken(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		if r > ' ' && r != '"' && r < 127 {
			out = append(out, r)
		}
	}
	return string(out)
}

package feature

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"openmfa/internal/eventstream"
	"openmfa/internal/geoip"
	"openmfa/internal/leakcheck"
	"openmfa/internal/obs"
)

var t0 = time.Date(2026, 3, 2, 10, 0, 0, 0, time.UTC)

func ip(s string) net.IP { return net.ParseIP(s) }

func loginEvent(user, addr, result string, at time.Time) eventstream.Event {
	return eventstream.Event{Time: at, Type: eventstream.TypeLogin,
		Component: "sshd", User: user, Addr: addr, Result: result}
}

func TestSlash24(t *testing.T) {
	cases := []struct{ in, want string }{
		{"129.114.3.7", "129.114.3.0/24"},
		{"10.0.0.1", "10.0.0.0/24"},
		{"255.255.255.255", "255.255.255.0/24"},
		{"2001:db8::1", "2001:db8::1"}, // IPv6: the address is its own key
	}
	for _, c := range cases {
		if got := Slash24(ip(c.in)); got != c.want {
			t.Errorf("Slash24(%s) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseAddr(t *testing.T) {
	cases := []struct{ in, want string }{
		{"129.114.3.7", "129.114.3.7"},
		{"129.114.3.7:51514", "129.114.3.7"},
		{"[2001:db8::1]:22", "2001:db8::1"},
		{"2001:db8::1", "2001:db8::1"},
		{"not-an-address", ""},
		{"", ""},
	}
	for _, c := range cases {
		got := ParseAddr(c.in)
		if c.want == "" {
			if got != nil {
				t.Errorf("ParseAddr(%q) = %v, want nil", c.in, got)
			}
			continue
		}
		if got == nil || got.String() != c.want {
			t.Errorf("ParseAddr(%q) = %v, want %s", c.in, got, c.want)
		}
	}
}

func TestSnapshotLifecycle(t *testing.T) {
	s := NewStore(Config{Geo: geoip.Synthetic()})
	austin := ip("129.114.3.7")

	// Unknown account: nothing is novel, geo is configured but history
	// absent.
	f := s.Snapshot("alice", austin, t0)
	if f.Known || f.History != 0 || f.NewNetwork || f.NewCountry {
		t.Fatalf("unknown account snapshot = %+v", f)
	}
	if !f.GeoConfigured || f.Network != "129.114.3.0/24" {
		t.Fatalf("snapshot geo/network = %+v", f)
	}

	for i := 0; i < 5; i++ {
		s.RecordSuccess("alice", austin, t0.AddDate(0, 0, i))
	}
	at := t0.AddDate(0, 0, 6)
	f = s.Snapshot("alice", austin, at)
	if !f.Known || f.History != 5 {
		t.Fatalf("history = %+v", f)
	}
	if f.NewNetwork || f.Network != "" {
		t.Fatalf("familiar network flagged novel: %+v", f)
	}
	if f.NewCountry || !f.GeoKnown {
		t.Fatalf("familiar country flagged novel: %+v", f)
	}
	if !f.HasLastLoc || f.DistanceKm != 0 || f.SpeedKmh != 0 {
		t.Fatalf("same-place travel features = %+v", f)
	}

	// Novel origin: network + country light up and the key is populated.
	f = s.Snapshot("alice", ip("141.20.1.2"), at)
	if !f.NewNetwork || f.Network != "141.20.1.0/24" || !f.NewCountry {
		t.Fatalf("novel origin snapshot = %+v", f)
	}
	if !f.HasLastLoc || f.DistanceKm < 1000 || f.SpeedKmh <= 0 {
		t.Fatalf("travel features = %+v", f)
	}
}

func TestFailureWindowAndBurst(t *testing.T) {
	s := NewStore(Config{})
	a := ip("10.0.0.1")
	for i := 0; i < 4; i++ {
		s.RecordFailure("bob", a, t0.Add(time.Duration(i)*time.Minute))
	}
	at := t0.Add(5 * time.Minute)
	f := s.Snapshot("bob", a, at)
	if f.RecentFails != 4 {
		t.Fatalf("RecentFails = %d, want 4", f.RecentFails)
	}
	if f.FailBurst <= 0 || f.FailBurst > 4 {
		t.Fatalf("FailBurst = %v", f.FailBurst)
	}
	// Outside the window the count expires; the EWMA has decayed to
	// (practically) nothing.
	late := t0.Add(FailWindow + 6*time.Minute)
	f = s.Snapshot("bob", a, late)
	if f.RecentFails != 0 {
		t.Fatalf("RecentFails after window = %d", f.RecentFails)
	}
	if f.FailBurst > 0.25 {
		t.Fatalf("FailBurst barely decayed: %v", f.FailBurst)
	}
	// The ring itself is bounded.
	for i := 0; i < 3*maxFails; i++ {
		s.RecordFailure("bob", a, late.Add(time.Duration(i)*time.Second))
	}
	f = s.Snapshot("bob", a, late.Add(time.Duration(3*maxFails)*time.Second))
	if f.RecentFails != maxFails {
		t.Fatalf("RecentFails = %d, want ring cap %d", f.RecentFails, maxFails)
	}
}

func TestOffHoursProfile(t *testing.T) {
	s := NewStore(Config{})
	a := ip("10.0.0.1")
	// 30 successes, all at 09:00–11:00 UTC.
	for i := 0; i < 30; i++ {
		s.RecordSuccess("carol", a, t0.AddDate(0, 0, -30+i).Add(time.Duration(i%3)*time.Hour))
	}
	if f := s.Snapshot("carol", a, t0); f.OffHours {
		t.Fatalf("usual hour flagged off-hours: %+v", f)
	}
	night := time.Date(2026, 3, 2, 3, 0, 0, 0, time.UTC)
	if f := s.Snapshot("carol", a, night); !f.OffHours {
		t.Fatalf("03:00 not flagged off-hours: %+v", f)
	}
	// Accounts with thin history never trip the flag.
	s.RecordSuccess("dave", a, t0)
	if f := s.Snapshot("dave", a, night); f.OffHours {
		t.Fatal("off-hours fired with 1 login of history")
	}
}

func TestMethodMixAndMFAUses(t *testing.T) {
	s := NewStore(Config{})
	s.RecordMFA("erin", "totp", true, t0)
	s.RecordMFA("erin", "totp", true, t0.Add(time.Minute))
	s.RecordMFA("erin", "sms", true, t0.Add(2*time.Minute))
	s.RecordMFA("erin", "sms", false, t0.Add(3*time.Minute))
	f := s.Snapshot("erin", ip("10.0.0.1"), t0.Add(4*time.Minute))
	if f.MFAUses != 3 {
		t.Fatalf("MFAUses = %d, want 3", f.MFAUses)
	}
	want := []MethodCount{{"sms", 2}, {"totp", 2}}
	if len(f.Methods) != 2 || f.Methods[0] != want[0] || f.Methods[1] != want[1] {
		t.Fatalf("Methods = %+v, want %+v", f.Methods, want)
	}
}

func TestIngestRouting(t *testing.T) {
	s := NewStore(Config{})
	s.Ingest(loginEvent("alice", "129.114.3.7:50000", "accept", t0))
	s.Ingest(loginEvent("alice", "129.114.3.7:50001", "reject", t0.Add(time.Minute)))
	s.Ingest(eventstream.Event{Time: t0, Type: eventstream.TypeMFA,
		User: "alice", Method: "totp", Result: "accept"})
	// Ignored: no user, unparseable address, decision feedback.
	s.Ingest(loginEvent("", "129.114.3.7", "accept", t0))
	s.Ingest(loginEvent("alice", "???", "accept", t0))
	s.Ingest(eventstream.Event{Time: t0, Type: eventstream.TypeRisk,
		User: "alice", Addr: "159.226.40.1", Result: "deny"})
	s.Ingest(eventstream.Event{Time: t0, Type: eventstream.TypeSMS, User: "alice"})

	f := s.Snapshot("alice", ip("129.114.3.7"), t0.Add(2*time.Minute))
	if f.History != 1 || f.RecentFails != 1 || f.MFAUses != 1 {
		t.Fatalf("ingested features = %+v", f)
	}
	if s.Users() != 1 {
		t.Fatalf("Users = %d, want 1", s.Users())
	}
}

func TestBoundedUnderChurnStorm(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewStore(Config{Obs: reg})
	s.maxUsers = 1000
	a := ip("10.0.0.1")
	for i := 0; i < 10000; i++ {
		s.RecordSuccess(fmt.Sprintf("user%05d", i), a, t0.Add(time.Duration(i)*time.Second))
	}
	if n := s.Users(); n > 1000 {
		t.Fatalf("Users = %d, want <= cap 1000", n)
	}
	// The newest accounts survive; the oldest were evicted.
	if f := s.Snapshot("user09999", a, t0.Add(time.Hour*3)); !f.Known {
		t.Fatal("most recent account evicted")
	}
	if f := s.Snapshot("user00000", a, t0.Add(time.Hour*3)); f.Known {
		t.Fatal("oldest account survived a 10x churn storm")
	}
}

func TestEvictionDeterministic(t *testing.T) {
	// The same event history must evict the same accounts: replay
	// convergence depends on it.
	feed := func() *Store {
		s := NewStore(Config{})
		s.maxUsers = 64
		for i := 0; i < 500; i++ {
			user := fmt.Sprintf("u%03d", i%150) // revisits keep some fresh
			s.RecordSuccess(user, ip("10.0.0.1"), t0.Add(time.Duration(i)*time.Minute))
		}
		return s
	}
	s1, s2 := feed(), feed()
	if s1.Users() != s2.Users() {
		t.Fatalf("user counts diverged: %d vs %d", s1.Users(), s2.Users())
	}
	at := t0.Add(600 * time.Minute)
	for i := 0; i < 150; i++ {
		user := fmt.Sprintf("u%03d", i)
		k1 := s1.Snapshot(user, ip("10.0.0.1"), at).Known
		k2 := s2.Snapshot(user, ip("10.0.0.1"), at).Known
		if k1 != k2 {
			t.Fatalf("survivor sets diverged at %s: %v vs %v", user, k1, k2)
		}
	}
}

func TestAttachIngestsAndStopDrains(t *testing.T) {
	leakcheck.Check(t)
	bus := eventstream.NewBus(nil)
	s := NewStore(Config{})
	s.Attach(bus, 1024)
	const n = 500
	for i := 0; i < n; i++ {
		bus.Publish(loginEvent("alice", "129.114.3.7", "accept", t0.Add(time.Duration(i)*time.Minute)))
	}
	// Stop closes the subscription and drains everything already
	// buffered: all n events must be in the store afterwards.
	s.Stop()
	f := s.Snapshot("alice", ip("129.114.3.7"), t0.AddDate(0, 0, 1))
	if f.History != n {
		t.Fatalf("History = %d, want %d (Stop did not drain)", f.History, n)
	}
	if s.Dropped() != 0 {
		t.Fatalf("Dropped = %d", s.Dropped())
	}
	// Second Stop is a no-op; Attach after Stop works again.
	s.Stop()
	s.Attach(bus, 16)
	bus.Publish(loginEvent("alice", "129.114.3.7", "accept", t0.AddDate(0, 0, 2)))
	s.Stop()
	if f := s.Snapshot("alice", ip("129.114.3.7"), t0.AddDate(0, 0, 3)); f.History != n+1 {
		t.Fatalf("History after re-attach = %d, want %d", f.History, n+1)
	}
}

func TestConcurrentPublishSnapshotStop(t *testing.T) {
	// Race hygiene under -race: concurrent bus publishes, direct writes,
	// reads, and a mid-flight Stop.
	leakcheck.Check(t)
	bus := eventstream.NewBus(nil)
	s := NewStore(Config{Geo: geoip.Synthetic()})
	s.maxUsers = 200
	s.Attach(bus, 4096)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				user := fmt.Sprintf("w%dg%d", g, i%50)
				bus.Publish(loginEvent(user, "129.114.3.7", "accept", t0.Add(time.Duration(i)*time.Second)))
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			s.RecordFailure("direct", ip("10.0.0.9"), t0.Add(time.Duration(i)*time.Second))
			s.Snapshot("w0g0", ip("129.114.3.7"), t0.Add(time.Duration(i)*time.Second))
			s.Users()
		}
	}()
	wg.Wait()
	s.Stop()
	if s.Users() > 200 {
		t.Fatalf("Users = %d, want <= 200", s.Users())
	}
}

// Package feature is the streaming per-user feature store behind the
// adaptive-MFA engine (the RBA architecture from the OpenStack risk-based
// authentication paper, see PAPERS.md): a bounded in-memory profile of
// every account's login behaviour, folded in one typed auth event at a
// time from internal/eventstream.
//
// The store computes facts, not verdicts: Snapshot returns the feature
// vector for a prospective attempt (novel /24, novel country, implied
// travel velocity, failure pressure and burst EWMA, off-hours flag,
// factor mix) and the risk package applies policy weights to it. Keeping
// the layers separate means the same store can back the synchronous PAM
// gate (fed by sshd outcome callbacks) and the advisory bus-attached mode
// (fed by Ingest), and a JSONL replay of either is byte-identical.
//
// All state is bounded: per-user network/country sets are capped, the
// failure ring is capped, and the user table itself evicts
// least-recently-active accounts in deterministic batches once maxUsers
// is exceeded — eviction order depends only on event times and user
// names, never on map iteration order, so replays converge.
package feature

import (
	"math"
	"net"
	"sort"
	"strconv"
	"sync"
	"time"

	"openmfa/internal/eventstream"
	"openmfa/internal/geoip"
	"openmfa/internal/obs"
)

// Config parameterises a store.
type Config struct {
	// Geo resolves source addresses; nil disables the geographic
	// features (they read as unknown, which the scorer treats neutrally
	// — see Features.GeoConfigured).
	Geo *geoip.DB
	// Obs, when set, exports risk_feature_users (occupancy gauge) and
	// risk_feature_evictions_total.
	Obs *obs.Registry
}

const (
	// maxUsers bounds the user table. When exceeded the
	// least-recently-active batch is evicted.
	maxUsers = 10000
	// maxNetworks bounds each user's first-sighting /24 set.
	maxNetworks  = 256
	maxCountries = 64
	maxFails     = 64
	// FailWindow is the sliding window for the recent-failure count.
	FailWindow = 30 * time.Minute
	// burstTau is the failure-burst EWMA decay constant.
	burstTau = 10 * time.Minute
)

// userState is one account's bounded history.
type userState struct {
	networks  map[string]bool // /24 prefixes seen on success
	countries map[string]bool
	methods   map[string]int // second-factor method → uses

	lastSeen   time.Time // last successful login
	lastEvent  time.Time // last event of any kind (eviction clock)
	lastLoc    geoip.Location
	hasLastLoc bool

	fails   []time.Time // recent-failure ring
	burst   float64     // failure EWMA, decayed to burstAt
	burstAt time.Time
	hours   [24]int // success-hour histogram
	total   int     // successful logins
	mfaUses int     // accepted second factors
}

// Store is the bounded feature table. Safe for concurrent use.
type Store struct {
	geo      *geoip.DB
	maxUsers int // the maxUsers constant; tests lower it

	mu    sync.Mutex
	users map[string]*userState

	occupancy *obs.Gauge   // risk_feature_users
	evictions *obs.Counter // risk_feature_evictions_total

	subMu sync.Mutex
	sub   *eventstream.Subscription
	done  chan struct{}
}

// NewStore builds a store.
func NewStore(cfg Config) *Store {
	return &Store{
		geo:       cfg.Geo,
		maxUsers:  maxUsers,
		users:     make(map[string]*userState),
		occupancy: cfg.Obs.Gauge("risk_feature_users"),
		evictions: cfg.Obs.Counter("risk_feature_evictions_total"),
	}
}

// Geo reports the configured geolocation DB (nil when disabled).
func (s *Store) Geo() *geoip.DB { return s.geo }

// Slash24 formats the /24 prefix key for an address.
func Slash24(ip net.IP) string {
	var nb [maxKeyLen]byte
	return string(appendNetKey(nb[:0], ip))
}

const maxKeyLen = len("255.255.255.0/24")

// appendNetKey appends the /24 prefix key to buf. Hand-rolled rather than
// fmt.Sprintf, and used with Go's alloc-free map[string] lookup on
// string(buf): this runs on every snapshot and every recorded login.
func appendNetKey(buf []byte, ip net.IP) []byte {
	v4 := ip.To4()
	if v4 == nil {
		return append(buf, ip.String()...)
	}
	buf = strconv.AppendUint(buf, uint64(v4[0]), 10)
	buf = append(buf, '.')
	buf = strconv.AppendUint(buf, uint64(v4[1]), 10)
	buf = append(buf, '.')
	buf = strconv.AppendUint(buf, uint64(v4[2]), 10)
	return append(buf, ".0/24"...)
}

func (s *Store) state(user string, at time.Time) *userState {
	st := s.users[user]
	if st == nil {
		st = &userState{
			networks:  map[string]bool{},
			countries: map[string]bool{},
			methods:   map[string]int{},
		}
		s.users[user] = st
		if len(s.users) > s.maxUsers {
			s.evictLocked()
		}
		s.occupancy.Set(float64(len(s.users)))
	}
	if at.After(st.lastEvent) {
		st.lastEvent = at
	}
	return st
}

// evictLocked drops the least-recently-active batch of users, bringing
// the table back under maxUsers. Order is (lastEvent, name): purely a
// function of the event history, so replays evict identically.
func (s *Store) evictLocked() {
	batch := s.maxUsers / 64
	if batch < 1 {
		batch = 1
	}
	type cand struct {
		name string
		at   time.Time
	}
	all := make([]cand, 0, len(s.users))
	for name, st := range s.users {
		all = append(all, cand{name, st.lastEvent})
	}
	sort.Slice(all, func(i, j int) bool {
		if !all[i].at.Equal(all[j].at) {
			return all[i].at.Before(all[j].at)
		}
		return all[i].name < all[j].name
	})
	if batch > len(all) {
		batch = len(all)
	}
	for _, c := range all[:batch] {
		delete(s.users, c.name)
	}
	s.evictions.Add(int64(batch))
}

// RecordSuccess folds a successful login into the user's history.
func (s *Store) RecordSuccess(user string, ip net.IP, at time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.state(user, at)
	if len(st.networks) < maxNetworks {
		st.networks[Slash24(ip)] = true
	}
	if s.geo != nil {
		if loc, err := s.geo.Lookup(ip); err == nil {
			if len(st.countries) < maxCountries {
				st.countries[loc.Country] = true
			}
			st.lastLoc, st.hasLastLoc = loc, true
		}
	}
	st.lastSeen = at
	st.hours[at.UTC().Hour()]++
	st.total++
	st.fails = pruneFails(st.fails, at)
}

// RecordFailure folds a failed attempt into the user's history.
func (s *Store) RecordFailure(user string, ip net.IP, at time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.state(user, at)
	st.fails = append(pruneFails(st.fails, at), at)
	if len(st.fails) > maxFails {
		st.fails = st.fails[len(st.fails)-maxFails:]
	}
	st.burst = decayBurst(st.burst, st.burstAt, at) + 1
	st.burstAt = at
}

// RecordMFA folds a second-factor outcome (eventstream mfa event) in.
func (s *Store) RecordMFA(user, method string, accepted bool, at time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.state(user, at)
	if method != "" && (len(st.methods) < 8 || st.methods[method] > 0) {
		st.methods[method]++
	}
	if accepted {
		st.mfaUses++
	}
}

// decayBurst ages the EWMA from 'from' to 'to'.
func decayBurst(v float64, from, to time.Time) float64 {
	if v == 0 || !to.After(from) {
		return v
	}
	return v * math.Exp(-to.Sub(from).Seconds()/burstTau.Seconds())
}

func pruneFails(fails []time.Time, now time.Time) []time.Time {
	kept := fails[:0]
	for _, f := range fails {
		if now.Sub(f) <= FailWindow {
			kept = append(kept, f)
		}
	}
	if len(kept) > maxFails {
		kept = kept[len(kept)-maxFails:]
	}
	return kept
}

// Ingest folds one typed auth event into the store. This is the single
// code path shared by the bus consumer (Attach) and offline JSONL
// replays, so live and replayed feature state are identical. Risk
// decision events are ignored — the engine's own output must not feed
// back into its input.
func (s *Store) Ingest(e eventstream.Event) {
	if e.User == "" {
		return
	}
	switch e.Type {
	case eventstream.TypeLogin:
		ip := ParseAddr(e.Addr)
		if ip == nil {
			return
		}
		if e.Result == "accept" {
			s.RecordSuccess(e.User, ip, e.Time)
		} else {
			s.RecordFailure(e.User, ip, e.Time)
		}
	case eventstream.TypeMFA:
		s.RecordMFA(e.User, e.Method, e.Result == "accept", e.Time)
	}
	// sms/lockout/enroll/radius/risk: no per-user feature contribution.
}

// ParseAddr extracts the IP from an event address ("ip" or "ip:port").
func ParseAddr(addr string) net.IP {
	if ip := net.ParseIP(addr); ip != nil {
		return ip
	}
	if host, _, err := net.SplitHostPort(addr); err == nil {
		return net.ParseIP(host)
	}
	return nil
}

// Attach subscribes the store to a bus and ingests events on a background
// goroutine until Stop. One attachment at a time.
func (s *Store) Attach(bus *eventstream.Bus, buffer int) {
	s.AttachFunc(bus, buffer, s.Ingest)
}

// AttachFunc is Attach with a custom per-event handler (the risk engine
// substitutes its decide-then-ingest Observe path).
func (s *Store) AttachFunc(bus *eventstream.Bus, buffer int, handle func(eventstream.Event)) {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	if s.sub != nil {
		return
	}
	s.sub = bus.Subscribe(buffer)
	s.done = make(chan struct{})
	go func(sub *eventstream.Subscription, done chan struct{}) {
		defer close(done)
		for e := range sub.Events() {
			handle(e)
		}
	}(s.sub, s.done)
}

// Stop closes the attachment and drains buffered events before returning.
func (s *Store) Stop() {
	s.subMu.Lock()
	sub, done := s.sub, s.done
	s.sub, s.done = nil, nil
	s.subMu.Unlock()
	if sub == nil {
		return
	}
	sub.Close()
	<-done
}

// Dropped reports events the attached subscription missed (0 when never
// attached).
func (s *Store) Dropped() uint64 {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	if s.sub == nil {
		return 0
	}
	return s.sub.Dropped()
}

// Users reports how many accounts currently have history.
func (s *Store) Users() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.users)
}

// MethodCount is one second-factor method's use count.
type MethodCount struct {
	Method string
	Count  int
}

// Features is the read-only feature vector for one prospective attempt.
type Features struct {
	// Known is false for accounts with no recorded history at all.
	Known bool
	// History is the number of successful logins on record.
	History int
	// MFAUses is the number of accepted second factors on record.
	MFAUses int
	// Methods is the second-factor mix, sorted by method name.
	Methods []MethodCount

	// NewNetwork is true when the account has history and has never
	// succeeded from the source /24. Network carries the formatted prefix
	// for explanations; to keep the known-network hot path allocation
	// free it is only populated when NewNetwork is set or the account has
	// no successes yet (use Slash24 when the key is always needed).
	Network    string
	NewNetwork bool

	// GeoConfigured reports whether the store has a geolocation DB at
	// all; GeoKnown whether this source resolved. Country/NewCountry are
	// meaningful only when GeoKnown.
	GeoConfigured bool
	GeoKnown      bool
	Country       string
	NewCountry    bool

	// HasLastLoc, SpeedKmh, DistanceKm and Gap describe implied travel
	// from the account's last successful login location.
	HasLastLoc bool
	SpeedKmh   float64
	DistanceKm float64
	Gap        time.Duration

	// RecentFails is the failure count inside FailWindow; FailBurst the
	// burst EWMA decayed to the attempt time.
	RecentFails int
	FailBurst   float64

	// OffHours is set when the account has >= 20 successes and the
	// attempt hour (and both adjacent hours) account for under 2% of them.
	OffHours bool
	Hour     int
}

// Snapshot computes the feature vector for an attempt by user from ip at
// the given time. Read-only: assessment never mutates history.
func (s *Store) Snapshot(user string, ip net.IP, at time.Time) Features {
	s.mu.Lock()
	defer s.mu.Unlock()

	var nb [maxKeyLen]byte
	key := appendNetKey(nb[:0], ip)
	f := Features{GeoConfigured: s.geo != nil, Hour: at.UTC().Hour()}
	st := s.users[user]
	if st == nil {
		f.Network = string(key)
		return f
	}
	f.Known = true
	f.History = st.total
	f.MFAUses = st.mfaUses
	if len(st.methods) > 0 {
		f.Methods = make([]MethodCount, 0, len(st.methods))
		for m, n := range st.methods {
			f.Methods = append(f.Methods, MethodCount{m, n})
		}
		sort.Slice(f.Methods, func(i, j int) bool { return f.Methods[i].Method < f.Methods[j].Method })
	}

	if st.total > 0 {
		f.NewNetwork = !st.networks[string(key)] // alloc-free map read
	}
	if f.NewNetwork || st.total == 0 {
		f.Network = string(key)
	}
	var loc geoip.Location
	if s.geo != nil {
		if l, err := s.geo.Lookup(ip); err == nil {
			loc = l
			f.GeoKnown = true
			f.Country = l.Country
			if st.total > 0 {
				f.NewCountry = !st.countries[l.Country]
			}
		}
	}
	if f.GeoKnown && st.hasLastLoc {
		f.HasLastLoc = true
		f.Gap = at.Sub(st.lastSeen)
		if st.lastLoc != loc { // same place (the common case): zero km, zero speed
			f.DistanceKm = geoip.KilometersBetween(st.lastLoc, loc)
			switch {
			case f.Gap > 0:
				f.SpeedKmh = f.DistanceKm / f.Gap.Hours()
			case f.DistanceKm > 0:
				f.SpeedKmh = math.Inf(1)
			}
		}
	}

	for _, ft := range st.fails {
		if at.Sub(ft) <= FailWindow {
			f.RecentFails++
		}
	}
	f.FailBurst = decayBurst(st.burst, st.burstAt, at)

	if st.total >= 20 {
		usual := false
		for _, hh := range []int{(f.Hour + 23) % 24, f.Hour, (f.Hour + 1) % 24} {
			if float64(st.hours[hh]) >= 0.02*float64(st.total) {
				usual = true
			}
		}
		f.OffHours = !usual
	}
	return f
}

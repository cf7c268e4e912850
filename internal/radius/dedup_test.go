package radius

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"openmfa/internal/leakcheck"
)

// strAddr is a net.Addr that is not a *net.UDPAddr, so dkey exercises
// dedupKeyOf's parsed and digest fallbacks.
type strAddr string

func (a strAddr) Network() string { return "test" }
func (a strAddr) String() string  { return string(a) }

func dkey(src string, id byte) dedupKey {
	var auth [16]byte
	auth[0] = id
	return dedupKeyOf(strAddr(src), id, auth)
}

// seqKey is the i-th distinct key of a steady stream of fresh requests.
func seqKey(i int) dedupKey {
	var auth [16]byte
	binary.LittleEndian.PutUint64(auth[:], uint64(i))
	return dedupKey{id: byte(i), auth: auth}
}

func TestDedupReserveThenDuplicate(t *testing.T) {
	now := time.Unix(1000, 0)
	tab := newDedupTable(5*time.Second, 0, func() time.Time { return now })
	seq, w := tab.reserve(dkey("1.2.3.4:1812", 1))
	if w != nil {
		t.Fatal("first reserve not new")
	}
	dup, dupW := tab.reserve(dkey("1.2.3.4:1812", 1))
	if dupW == nil {
		t.Fatal("duplicate reserve treated as new")
	}
	if dup != seq {
		t.Fatal("duplicate got a different reservation")
	}
	select {
	case <-dupW.done:
		t.Fatal("done closed before finish")
	default:
	}
	tab.finish(seq, []byte("reply"))
	if got := dupW.wait(); string(got) != "reply" {
		t.Fatalf("reply = %q", got)
	}
	// A retransmission after the reply replays it at once.
	if _, late := tab.reserve(dkey("1.2.3.4:1812", 1)); late == nil || string(late.wait()) != "reply" {
		t.Fatal("late duplicate did not replay the cached reply")
	}
}

func TestDedupExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	tab := newDedupTable(5*time.Second, 0, func() time.Time { return now })
	seq, _ := tab.reserve(dkey("a", 1))
	tab.finish(seq, []byte("r"))
	now = now.Add(6 * time.Second)
	if _, w := tab.reserve(dkey("a", 1)); w != nil {
		t.Fatal("expired entry still deduplicated")
	}
	if tab.len() != 1 {
		t.Fatalf("len = %d, want 1 (expired entry purged)", tab.len())
	}
}

func TestDedupHardCap(t *testing.T) {
	now := time.Unix(1000, 0)
	tab := newDedupTable(time.Hour, 100, func() time.Time { return now })
	// A spoofed-source flood: every packet a distinct key, none expiring.
	for i := 0; i < 1000; i++ {
		seq, w := tab.reserve(dkey(fmt.Sprintf("10.0.%d.%d:1812", i/256, i%256), byte(i)))
		if w != nil {
			t.Fatalf("packet %d misdetected as duplicate", i)
		}
		tab.finish(seq, nil)
	}
	if tab.len() != 100 {
		t.Fatalf("len = %d, want hard cap 100", tab.len())
	}
	// The newest entry survived; the oldest was evicted.
	if _, w := tab.reserve(dkey("10.0.3.231:1812", byte(999%256))); w == nil {
		t.Fatal("newest entry evicted")
	}
	if _, w := tab.reserve(dkey("10.0.0.0:1812", 0)); w != nil {
		t.Fatal("oldest entry not evicted")
	}
}

// TestDedupEvictionThenReinsertKeepsNewEntry guards the ABA case: a key is
// evicted, re-reserved, and the stale reservation must not purge the new
// entry when the old one's expiry passes.
func TestDedupEvictionThenReinsertKeepsNewEntry(t *testing.T) {
	now := time.Unix(1000, 0)
	tab := newDedupTable(5*time.Second, 2, func() time.Time { return now })
	seqA, _ := tab.reserve(dkey("a", 1))
	tab.finish(seqA, nil)
	seqB, _ := tab.reserve(dkey("b", 2))
	tab.finish(seqB, nil)
	// Cap pressure evicts "a"...
	seqC, _ := tab.reserve(dkey("c", 3))
	tab.finish(seqC, nil)
	// ...and "a" is re-reserved with a fresh entry.
	now = now.Add(4 * time.Second)
	seqA2, w := tab.reserve(dkey("a", 1))
	if w != nil {
		t.Fatal("evicted key not re-reservable")
	}
	tab.finish(seqA2, []byte("fresh"))
	// A late finish of the evicted original must not touch the new entry.
	tab.finish(seqA, []byte("stale"))
	// When the ORIGINAL "a" reservation's expiry passes, the fresh entry
	// must survive (it expires later).
	now = now.Add(2 * time.Second)
	_, dup := tab.reserve(dkey("a", 1))
	if dup == nil {
		t.Fatal("fresh entry purged by stale reservation")
	}
	if got := dup.wait(); string(got) != "fresh" {
		t.Fatalf("reply = %q", got)
	}
}

// TestDedupKeyOf pins the key derivation: the UDP fast path and the parsed
// fallback agree, IPv4 and its IPv4-mapped IPv6 form are one source (as
// their String forms are), and every field of the key separates requests.
func TestDedupKeyOf(t *testing.T) {
	var auth [16]byte
	auth[3] = 9
	udp := dedupKeyOf(&net.UDPAddr{IP: net.IPv4(10, 1, 2, 3), Port: 1812}, 7, auth)
	for _, src := range []net.Addr{
		&net.UDPAddr{IP: net.IPv4(10, 1, 2, 3).To4(), Port: 1812},
		strAddr("10.1.2.3:1812"),
		strAddr("[::ffff:10.1.2.3]:1812"),
	} {
		if got := dedupKeyOf(src, 7, auth); got != udp {
			t.Errorf("key(%v) = %+v, want %+v", src, got, udp)
		}
	}
	other := auth
	other[15] = 1
	for name, k := range map[string]dedupKey{
		"port":     dedupKeyOf(&net.UDPAddr{IP: net.IPv4(10, 1, 2, 3), Port: 1813}, 7, auth),
		"ip":       dedupKeyOf(&net.UDPAddr{IP: net.IPv4(10, 1, 2, 4), Port: 1812}, 7, auth),
		"ipv6":     dedupKeyOf(&net.UDPAddr{IP: net.ParseIP("2001:db8::1"), Port: 1812}, 7, auth),
		"id":       dedupKeyOf(&net.UDPAddr{IP: net.IPv4(10, 1, 2, 3), Port: 1812}, 8, auth),
		"auth":     dedupKeyOf(&net.UDPAddr{IP: net.IPv4(10, 1, 2, 3), Port: 1812}, 7, other),
		"unparsed": dedupKeyOf(strAddr("pipe:10.1.2.3"), 7, auth),
	} {
		if k == udp {
			t.Errorf("%s: distinct request mapped to the same key", name)
		}
	}
	if dedupKeyOf(strAddr("x"), 7, auth) == dedupKeyOf(strAddr("y"), 7, auth) {
		t.Error("distinct unparsed sources share a key")
	}
}

// refEntry, refRecord and refDedup are the map + FIFO table the ring
// replaced, kept as the reference the ring is checked against. Its expiry
// compacts the whole queue on every packet; that cost is why it was
// replaced, not a correctness problem.
type refEntry struct {
	done  chan struct{}
	reply []byte
	at    time.Time
}

type refRecord struct {
	key   dedupKey
	entry *refEntry
}

type refDedup struct {
	mu      sync.Mutex
	entries map[dedupKey]*refEntry
	queue   []refRecord
	window  time.Duration
	max     int
	now     func() time.Time
}

func newRefDedup(window time.Duration, maxEntries int, now func() time.Time) *refDedup {
	return &refDedup{entries: make(map[dedupKey]*refEntry), window: window, max: maxEntries, now: now}
}

func (t *refDedup) reserve(key dedupKey) (entry *refEntry, isNew bool) {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.purgeLocked(now)
	if e, ok := t.entries[key]; ok {
		return e, false
	}
	if t.max > 0 {
		for len(t.entries) >= t.max && len(t.queue) > 0 {
			t.evictOldestLocked()
		}
	}
	e := &refEntry{done: make(chan struct{}), at: now}
	t.entries[key] = e
	t.queue = append(t.queue, refRecord{key: key, entry: e})
	return e, true
}

func (t *refDedup) finish(e *refEntry, reply []byte) {
	e.reply = reply
	close(e.done)
}

func (t *refDedup) purgeLocked(now time.Time) {
	i := 0
	for ; i < len(t.queue); i++ {
		rec := t.queue[i]
		if now.Sub(rec.entry.at) < t.window {
			break
		}
		if cur, ok := t.entries[rec.key]; ok && cur == rec.entry {
			delete(t.entries, rec.key)
		}
	}
	if i > 0 {
		t.queue = append(t.queue[:0], t.queue[i:]...)
	}
}

func (t *refDedup) evictOldestLocked() {
	rec := t.queue[0]
	t.queue = t.queue[1:]
	if cur, ok := t.entries[rec.key]; ok && cur == rec.entry {
		delete(t.entries, rec.key)
	}
}

func (t *refDedup) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}

func closed(c <-chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

func sameReply(a, b []byte) bool { return (a == nil) == (b == nil) && string(a) == string(b) }

// TestDedupMatchesReference drives the ring and refDedup with one seeded
// stream of reserves, finishes (some dropping, some after eviction) and
// clock advances, at a cap small enough to evict and one that mostly
// expires. After every step they must agree on isNew, on the reply a
// duplicate replays, and on len. The one intended difference: a duplicate
// waiting on a reservation that leaves the table unfinished is released
// then, to drop, where the reference kept it waiting.
func TestDedupMatchesReference(t *testing.T) {
	for _, capacity := range []int{8, 64} {
		t.Run(fmt.Sprintf("cap%d", capacity), func(t *testing.T) {
			const window = 5 * time.Second
			rng := rand.New(rand.NewSource(int64(capacity)))
			now := time.Unix(1000, 0)
			clock := func() time.Time { return now }
			tab := newDedupTable(window, capacity, clock)
			ref := newRefDedup(window, capacity, clock)
			maxStep := 4 * window / time.Duration(capacity)

			keys := make([]dedupKey, 3*capacity)
			for i := range keys {
				var auth [16]byte
				auth[0] = byte(i)
				keys[i] = dedupKeyOf(&net.UDPAddr{IP: net.IPv4(10, 0, byte(i>>8), byte(i)), Port: 1812}, byte(i), auth)
			}
			type owner struct {
				seq uint64
				e   *refEntry
			}
			type waiter struct {
				key dedupKey
				w   *dedupWait
				e   *refEntry
			}
			var owners []owner
			var waiters []waiter
			released := 0
			for step := 0; step < 20000; step++ {
				switch op := rng.Intn(10); {
				case op < 5:
					key := keys[rng.Intn(len(keys))]
					seq, w := tab.reserve(key)
					e, isNew := ref.reserve(key)
					if (w == nil) != isNew {
						t.Fatalf("step %d: isNew = %v, reference %v", step, w == nil, isNew)
					}
					if isNew {
						owners = append(owners, owner{seq, e})
					} else {
						waiters = append(waiters, waiter{key, w, e})
					}
				case op < 8:
					if len(owners) == 0 {
						continue
					}
					i := rng.Intn(len(owners))
					o := owners[i]
					owners = append(owners[:i], owners[i+1:]...)
					var reply []byte
					if rng.Intn(4) != 0 {
						reply = []byte(fmt.Sprintf("reply-%d", step))
					}
					tab.finish(o.seq, reply)
					ref.finish(o.e, reply)
				default:
					now = now.Add(time.Duration(rng.Int63n(int64(maxStep))))
				}
				if got, want := tab.len(), ref.len(); got != want {
					t.Fatalf("step %d: len = %d, reference %d", step, got, want)
				}
				// A waiter is checked after every step until it resolves, so
				// each step moves it at most one state: finished, or gone.
				pending := waiters[:0]
				for _, wt := range waiters {
					live := ref.entries[wt.key] == wt.e
					switch refDone, done := closed(wt.e.done), closed(wt.w.done); {
					case live && !refDone:
						if done {
							t.Fatalf("step %d: waiter released while its request is in flight", step)
						}
						pending = append(pending, wt)
					case live && refDone:
						if !done || !sameReply(wt.w.reply, wt.e.reply) {
							t.Fatalf("step %d: replay = %q (released %v), reference %q", step, wt.w.reply, done, wt.e.reply)
						}
					case !live && !refDone:
						if !done || wt.w.reply != nil {
							t.Fatalf("step %d: waiter on an evicted/expired reservation not released to drop", step)
						}
						released++
					default:
						t.Fatalf("step %d: waiter finished and left in one step", step)
					}
				}
				waiters = pending
			}
			if released == 0 {
				t.Fatal("the stream never released a waiter by eviction or expiry")
			}
		})
	}
}

// TestDedupWaitersReleasedUnderConcurrency runs reserves, finishes and
// waiting duplicates from several goroutines over a shared key pool on a
// small, short-window table. Some owners finish at once, some late, some
// never. Every duplicate must return within the window (released by
// finish, by eviction, or by its expiry timer), replay only its own
// request's reply, and leave no goroutine behind.
func TestDedupWaitersReleasedUnderConcurrency(t *testing.T) {
	leakcheck.Check(t)
	const (
		window  = 200 * time.Millisecond
		slack   = 150 * time.Millisecond
		workers = 8
		iters   = 300
	)
	tab := newDedupTable(window, 16, time.Now)
	keys := make([]dedupKey, 48)
	for i := range keys {
		keys[i] = seqKey(i)
	}
	replyFor := func(k int) []byte { return []byte(fmt.Sprintf("reply-%d", k)) }
	var wg sync.WaitGroup
	var replayed, dropped atomic.Int64
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < iters; i++ {
				k := rng.Intn(len(keys))
				seq, w := tab.reserve(keys[k])
				if w == nil {
					switch rng.Intn(4) {
					case 0, 1:
						tab.finish(seq, replyFor(k))
					case 2:
						delay := time.Duration(rng.Int63n(int64(window / 4)))
						wg.Add(1)
						go func() {
							defer wg.Done()
							time.Sleep(delay)
							tab.finish(seq, replyFor(k))
						}()
					}
					continue
				}
				start := time.Now()
				reply := w.wait()
				if d := time.Since(start); d > window+slack {
					t.Errorf("duplicate waited %v, window %v", d, window)
				}
				if reply == nil {
					dropped.Add(1)
				} else if string(reply) != string(replyFor(k)) {
					t.Errorf("key %d replayed %q", k, reply)
				} else {
					replayed.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if replayed.Load() == 0 || dropped.Load() == 0 {
		t.Fatalf("replayed %d, dropped %d: both paths must run", replayed.Load(), dropped.Load())
	}
}

// TestDedupWaiterReleasedWhenReservationLeaves pins the release rule on a
// fake clock: a duplicate of a reservation that never finishes is released
// to drop the moment the reservation is evicted or expires, and its wait
// is bounded by what remains of the reservation's window.
func TestDedupWaiterReleasedWhenReservationLeaves(t *testing.T) {
	now := time.Unix(1000, 0)
	tab := newDedupTable(5*time.Second, 2, func() time.Time { return now })
	tab.reserve(dkey("a", 1))
	now = now.Add(3 * time.Second)
	_, w := tab.reserve(dkey("a", 1))
	if w.left != 2*time.Second {
		t.Fatalf("wait bound = %v, want the 2s left of the window", w.left)
	}
	tab.reserve(dkey("b", 2))
	if closed(w.done) {
		t.Fatal("released before the reservation left")
	}
	tab.reserve(dkey("c", 3)) // cap 2: evicts "a"
	if !closed(w.done) || w.reply != nil {
		t.Fatal("eviction did not release the waiter to drop")
	}

	_, w = tab.reserve(dkey("c", 3))
	now = now.Add(5 * time.Second)
	tab.reserve(dkey("d", 4)) // "c" expired
	if !closed(w.done) || w.reply != nil {
		t.Fatal("expiry did not release the waiter to drop")
	}
}

// TestDedupExpiryMovesNoRecords is the O(1) gate: at a steady live
// population of 16 k, with one reservation expiring per operation, the
// table copies at most 2 records per operation on average, counting the
// ring's growth from empty. The map + FIFO it replaced shifted every live
// record on every packet (≈ 16 k per operation here).
func TestDedupExpiryMovesNoRecords(t *testing.T) {
	const (
		live   = 16000
		ops    = 100000
		window = 5 * time.Second
	)
	now := time.Unix(1000, 0)
	tab := newDedupTable(window, maxDedupEntries, func() time.Time { return now })
	for i := 0; i < live+ops; i++ {
		seq, _ := tab.reserve(seqKey(i))
		tab.finish(seq, nil)
		now = now.Add(window / live)
	}
	if got := tab.len(); got != live {
		t.Fatalf("live population = %d, want %d", got, live)
	}
	if per := float64(tab.moved) / ops; per > 2 {
		t.Fatalf("%.1f records moved per operation, want ≤ 2", per)
	}
}

// TestRetransmitStormHandlerRunsOnce fires many identical copies of one
// Access-Request concurrently from the same source socket and asserts the
// handler ran exactly once: the reserve-before-handle protocol must hold
// even while the original is still inside the handler. Before the fix the
// dedup entry was recorded only after the handler returned, so concurrent
// retransmissions consumed the user's OTP twice and could answer the pair
// with Accept+Reject.
func TestRetransmitStormHandlerRunsOnce(t *testing.T) {
	secret := []byte("storm-secret")
	var handled int32
	srv := &Server{
		Secret: secret,
		Handler: HandlerFunc(func(reply *Packet, req *Request) bool {
			atomic.AddInt32(&handled, 1)
			time.Sleep(50 * time.Millisecond) // keep the original in flight
			reply.Code = AccessAccept
			reply.AddString(AttrReplyMessage, "once")
			return true
		}),
	}
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	req := NewRequest(0)
	buildReq("stormuser", "123456", secret)(req)
	if err := AddMessageAuthenticator(req, secret); err != nil {
		t.Fatal(err)
	}
	wire, err := req.Encode()
	if err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("udp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const copies = 32
	var wg sync.WaitGroup
	for i := 0; i < copies; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn.Write(wire)
		}()
	}
	wg.Wait()

	// Every copy (original + retransmissions) is answered with the same
	// cached Accept once the handler finishes.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, MaxPacketLen)
	replies := 0
	for replies < copies {
		n, err := conn.Read(buf)
		if err != nil {
			break // deadline: UDP may drop some, that's fine
		}
		resp, err := Decode(buf[:n])
		if err != nil {
			t.Fatal(err)
		}
		if resp.Code != AccessAccept {
			t.Fatalf("reply %d: code = %v, want Access-Accept", replies, resp.Code)
		}
		replies++
	}
	if replies == 0 {
		t.Fatal("no replies received")
	}
	if got := atomic.LoadInt32(&handled); got != 1 {
		t.Fatalf("handler ran %d times for %d identical packets, want exactly 1", got, copies)
	}
}

// TestRetransmitAfterReplyReplaysCachedResponse covers the classic
// (non-concurrent) retransmission: the reply is served from cache and the
// handler is not re-invoked.
func TestRetransmitAfterReplyReplaysCachedResponse(t *testing.T) {
	secret := []byte("replay-secret")
	var handled int32
	srv := &Server{
		Secret: secret,
		Handler: HandlerFunc(func(reply *Packet, req *Request) bool {
			atomic.AddInt32(&handled, 1)
			reply.Code = AccessReject
			return true
		}),
	}
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	req := NewRequest(0)
	buildReq("u", "x", secret)(req)
	if err := AddMessageAuthenticator(req, secret); err != nil {
		t.Fatal(err)
	}
	wire, _ := req.Encode()
	conn, err := net.Dial("udp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, MaxPacketLen)
	for i := 0; i < 3; i++ {
		if _, err := conn.Write(wire); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := conn.Read(buf); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if got := atomic.LoadInt32(&handled); got != 1 {
		t.Fatalf("handler ran %d times, want 1", got)
	}
}

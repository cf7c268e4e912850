package radius

import (
	"crypto/md5"
	"net"
	"net/netip"
	"sync"
	"time"
)

// dedupKey identifies a request for RFC 2865 §2 duplicate detection: a
// retransmission reuses the source endpoint, the Identifier, and the
// Request Authenticator. It holds no pointers, so the index map is never
// scanned by the garbage collector and building a key allocates nothing.
type dedupKey struct {
	ip   [16]byte // IPv4 in its IPv4-mapped form; the IPv6 zone is dropped
	port uint16
	id   byte
	auth [16]byte
}

// dedupKeyOf builds the key for a request from src. A *net.UDPAddr (every
// datagram a UDP socket returns) is read in place; any other address is
// parsed from its String form, and one that does not parse as ip:port is
// keyed by its digest.
func dedupKeyOf(src net.Addr, id byte, auth [16]byte) dedupKey {
	k := dedupKey{id: id, auth: auth}
	var ap netip.AddrPort
	if u, ok := src.(*net.UDPAddr); ok {
		ap = u.AddrPort()
	} else if p, err := netip.ParseAddrPort(src.String()); err == nil {
		ap = p
	} else {
		k.ip = md5.Sum([]byte(src.String()))
		return k
	}
	k.ip, k.port = ap.Addr().As16(), ap.Port()
	return k
}

// dedupWait is what a duplicate waits on. It is created only when a
// duplicate arrives (never for a first-seen request), and shared by every
// duplicate of the same request. done is closed once reply is final: the
// original finished (reply is its answer, nil if it dropped the request),
// or its reservation left the table unfinished (reply nil).
type dedupWait struct {
	done  chan struct{}
	reply []byte
	left  time.Duration // time to the reservation's expiry, at creation
}

// wait blocks until w is released or the reservation's window has passed,
// and returns the reply to replay; nil means drop.
func (w *dedupWait) wait() []byte {
	timer := time.NewTimer(w.left)
	defer timer.Stop()
	select {
	case <-w.done:
		return w.reply
	case <-timer.C:
		return nil
	}
}

// dedupSlot is one reservation, stored by value in the ring.
type dedupSlot struct {
	key      dedupKey
	finished bool
	at       time.Time  // reservation time; expiry = at + window
	reply    []byte     // valid once finished; nil if the handler dropped
	wait     *dedupWait // nil until a duplicate arrives
}

// dedupTable is the duplicate-detection cache. Reservations live in a
// ring of values in reservation order; index maps each live key to the
// sequence number of its slot (slot = seq mod len(ring)). Every
// reservation lives for the same window, so the head is always the next
// to expire: expiry and cap eviction pop the head and move no other
// record. The ring grows by doubling while live reservations fill it;
// maxEntries caps them against spoofed-source floods by evicting the
// oldest reservation when full (the one a legitimate retransmission is
// least likely to still reference).
type dedupTable struct {
	mu         sync.Mutex
	index      map[dedupKey]uint64
	ring       []dedupSlot // power-of-two length
	head, tail uint64      // live reservations are seqs [head, tail)
	moved      uint64      // slots copied by grow
	window     time.Duration
	max        int
	now        func() time.Time
}

func newDedupTable(window time.Duration, maxEntries int, now func() time.Time) *dedupTable {
	return &dedupTable{
		index:  make(map[dedupKey]uint64),
		window: window,
		max:    maxEntries,
		now:    now,
	}
}

// reserve claims key for handling. A nil wait means the caller owns the
// request: it must run the handler and call finish(seq, …) exactly once.
// Otherwise the request is a duplicate: the caller replays w.wait().
func (t *dedupTable) reserve(key dedupKey) (seq uint64, w *dedupWait) {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	for t.head < t.tail && now.Sub(t.slot(t.head).at) >= t.window {
		t.popLocked()
	}
	if seq, ok := t.index[key]; ok {
		s := t.slot(seq)
		if s.wait == nil {
			s.wait = &dedupWait{done: make(chan struct{}), left: t.window - now.Sub(s.at)}
			if s.finished {
				s.wait.reply = s.reply
				close(s.wait.done)
			}
		}
		return seq, s.wait
	}
	if t.max > 0 {
		for t.tail-t.head >= uint64(t.max) {
			t.popLocked()
		}
	}
	if t.tail-t.head == uint64(len(t.ring)) {
		t.growLocked()
	}
	seq = t.tail
	t.tail++
	*t.slot(seq) = dedupSlot{key: key, at: now}
	t.index[key] = seq
	return seq, nil
}

// finish publishes the reply for reservation seq and releases every
// waiting duplicate. reply nil means the handler dropped the request;
// duplicates are then dropped too. Callers must invoke finish on every
// reservation, including error paths, or duplicates wait until expiry. A
// reservation that already left the table is ignored: its waiters were
// released when it left.
func (t *dedupTable) finish(seq uint64, reply []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if seq < t.head || seq >= t.tail {
		return
	}
	s := t.slot(seq)
	s.finished, s.reply = true, reply
	if s.wait != nil {
		s.wait.reply = reply
		close(s.wait.done)
	}
}

func (t *dedupTable) slot(seq uint64) *dedupSlot {
	return &t.ring[seq&uint64(len(t.ring)-1)]
}

// popLocked removes the oldest reservation (expiry or capacity pressure).
// Duplicates still waiting on an unfinished one are released to drop.
func (t *dedupTable) popLocked() {
	s := t.slot(t.head)
	if seq, ok := t.index[s.key]; ok && seq == t.head {
		delete(t.index, s.key)
	}
	if s.wait != nil && !s.finished {
		close(s.wait.done)
	}
	*s = dedupSlot{}
	t.head++
}

// growLocked doubles the ring, re-homing each live slot at its sequence
// number's position in the larger ring.
func (t *dedupTable) growLocked() {
	ring := make([]dedupSlot, max(16, 2*len(t.ring)))
	for seq := t.head; seq < t.tail; seq++ {
		ring[seq&uint64(len(ring)-1)] = *t.slot(seq)
	}
	t.moved += t.tail - t.head
	t.ring = ring
}

// len reports the live entry count (test hook).
func (t *dedupTable) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.index)
}

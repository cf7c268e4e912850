package repl

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"openmfa/internal/obs"
	"openmfa/internal/store"
)

// LeaderOptions configures StartLeader.
type LeaderOptions struct {
	// Addr is the TCP address followers connect to.
	Addr string
	// Listen, when set, replaces net.Listen (faultnet injection).
	Listen func(network, addr string) (net.Listener, error)
	// MinSync is how many followers must acknowledge a batch before
	// Apply returns. Zero ships asynchronously: local commits never
	// block, and a failover can lose the unshipped tail. With MinSync
	// >= 1 an OTP is only accepted once its consumption is replicated,
	// so a failover can never accept it twice.
	MinSync int
	// SyncTimeout bounds the MinSync wait; past it Apply fails (and
	// otpd fails the login closed). Default 2s.
	SyncTimeout time.Duration
	// Obs receives the repl_* metrics; Logger the session log.
	Obs    *obs.Registry
	Logger *obs.Logger
}

const (
	// ringFrames is the size of the in-memory frame ring used to serve
	// live streams and short catch-ups without touching disk.
	ringFrames = 4096
	// heartbeatEvery is the idle interval between heartbeats on each
	// follower stream.
	heartbeatEvery = 500 * time.Millisecond
	// writeTimeout bounds each buffered flush to a follower, so a
	// blackholed link frees its session instead of wedging it.
	writeTimeout = 5 * time.Second
)

// Leader accepts follower connections and streams the store's committed
// WAL frames to each. It installs itself as the store's Replicator:
// OnCommit feeds the frame ring, WaitCommitted implements the MinSync
// durability gate.
type Leader struct {
	st          *store.Store
	minSync     int
	syncTimeout time.Duration
	logger      *obs.Logger
	ln          net.Listener
	ring        *frameRing

	mu        sync.Mutex
	sessions  map[*session]struct{}
	ackNotify chan struct{}
	closed    bool
	closedCh  chan struct{}
	wg        sync.WaitGroup

	framesShipped *obs.Counter
	snapsShipped  *obs.Counter
	acksTotal     *obs.Counter
	waitTimeouts  *obs.Counter
	followersG    *obs.Gauge
	epochG        *obs.Gauge
	commitLSNG    *obs.Gauge
	lagG          *obs.Gauge
}

// ErrNotReplicated is wrapped into the error Apply surfaces when a batch
// missed its MinSync follower acknowledgements: the batch is durable
// locally, but the caller must treat the operation as failed.
var ErrNotReplicated = errors.New("repl: batch not acknowledged by enough followers")

// StartLeader fences out any previous leader by bumping the store's
// persisted epoch, clears follower mode (a promotion is exactly
// StopFollower-then-StartLeader), starts the listener, and installs the
// leader as the store's replicator.
func StartLeader(st *store.Store, opts LeaderOptions) (*Leader, error) {
	if err := st.SetEpoch(st.Epoch() + 1); err != nil {
		return nil, fmt.Errorf("repl: bump epoch: %w", err)
	}
	st.SetFollowerMode(false)
	listen := opts.Listen
	if listen == nil {
		listen = net.Listen
	}
	ln, err := listen("tcp", opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("repl: listen: %w", err)
	}
	l := &Leader{
		st:          st,
		minSync:     opts.MinSync,
		syncTimeout: opts.SyncTimeout,
		logger:      opts.Logger,
		ln:          ln,
		sessions:    map[*session]struct{}{},
		ackNotify:   make(chan struct{}),
		closedCh:    make(chan struct{}),
	}
	if l.syncTimeout <= 0 {
		l.syncTimeout = 2 * time.Second
	}
	// Everything committed before the leader started is only reachable
	// through segments or a snapshot.
	l.ring = newFrameRing(ringFrames, st.LSN())
	if opts.Obs != nil {
		l.framesShipped = opts.Obs.Counter("repl_frames_shipped_total")
		l.snapsShipped = opts.Obs.Counter("repl_snapshots_shipped_total")
		l.acksTotal = opts.Obs.Counter("repl_acks_total")
		l.waitTimeouts = opts.Obs.Counter("repl_wait_timeouts_total")
		l.followersG = opts.Obs.Gauge("repl_followers")
		l.epochG = opts.Obs.Gauge("repl_epoch")
		l.commitLSNG = opts.Obs.Gauge("repl_commit_lsn")
		l.lagG = opts.Obs.Gauge("repl_follower_lag_lsns")
	}
	l.epochG.Set(float64(st.Epoch()))
	st.SetReplicator(l)
	l.wg.Add(1)
	go l.acceptLoop()
	return l, nil
}

// Addr returns the listener's address (useful with ":0").
func (l *Leader) Addr() string { return l.ln.Addr().String() }

// OnCommit implements store.Replicator: it runs under the logging
// segment's shard lock, so per-segment arrival order is commit order,
// and feeds the frame ring that live sessions consume.
func (l *Leader) OnCommit(lsn uint64, shard int, frame []byte) {
	l.ring.add(lsn, uint32(shard), frame)
	// Cross-shard OnCommit order is not LSN order, so export the store's
	// high-water mark rather than this call's lsn: the gauge stays
	// monotone. Both reads are atomic — safe under the shard lock.
	l.commitLSNG.Set(float64(l.st.LSN()))
}

// WaitCommitted implements store.Replicator: with MinSync == 0 it is a
// no-op; otherwise it blocks until MinSync followers have acknowledged
// lsn, the timeout passes, or the leader closes.
func (l *Leader) WaitCommitted(lsn uint64) error {
	if l.minSync == 0 {
		return nil
	}
	deadline := time.NewTimer(l.syncTimeout)
	defer deadline.Stop()
	for {
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			return fmt.Errorf("%w: leader closed", ErrNotReplicated)
		}
		n := 0
		for s := range l.sessions {
			if s.acked.Load() >= lsn {
				n++
			}
		}
		notify := l.ackNotify
		l.mu.Unlock()
		if n >= l.minSync {
			return nil
		}
		select {
		case <-notify:
		case <-l.closedCh:
			return fmt.Errorf("%w: leader closed", ErrNotReplicated)
		case <-deadline.C:
			l.waitTimeouts.Inc()
			return fmt.Errorf("%w: %d/%d acks for lsn %d within %v",
				ErrNotReplicated, l.ackCount(lsn), l.minSync, lsn, l.syncTimeout)
		}
	}
}

func (l *Leader) ackCount(lsn uint64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for s := range l.sessions {
		if s.acked.Load() >= lsn {
			n++
		}
	}
	return n
}

// Followers reports the number of connected follower sessions.
func (l *Leader) Followers() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.sessions)
}

// Close stops the listener and every session and detaches from the
// store. In-flight WaitCommitted callers fail with ErrNotReplicated.
func (l *Leader) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	close(l.closedCh)
	for s := range l.sessions {
		s.conn.Close()
	}
	l.mu.Unlock()
	l.st.SetReplicator(nil)
	err := l.ln.Close()
	l.ring.wake()
	l.wg.Wait()
	return err
}

func (l *Leader) acceptLoop() {
	defer l.wg.Done()
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s := &session{
			l:           l,
			conn:        conn,
			done:        make(chan struct{}),
			addr:        conn.RemoteAddr().String(),
			connectedAt: time.Now(),
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			conn.Close()
			return
		}
		l.sessions[s] = struct{}{}
		l.followersG.Set(float64(len(l.sessions)))
		l.mu.Unlock()
		// A fresh follower has acknowledged nothing yet, so the exported
		// lag legitimately jumps to the full backlog until it catches up.
		l.updateLag()
		l.wg.Add(1)
		go s.run()
	}
}

// session is one follower connection: a writer streaming frames and a
// reader collecting acks.
type session struct {
	l           *Leader
	conn        net.Conn
	done        chan struct{}
	acked       atomic.Uint64
	addr        string
	connectedAt time.Time
	lastAck     atomic.Int64 // unix nanos of the newest ack, 0 before any
}

func (s *session) run() {
	defer s.l.wg.Done()
	defer s.close()
	l := s.l
	bc := newBufConn(s.conn)

	hello, err := readHandshake(bc.br)
	if err != nil {
		l.logf("repl: handshake read: %v", err)
		return
	}
	epoch := l.st.Epoch()
	if hello.epoch > epoch {
		// The follower has seen a newer leader: we are the stale one.
		// Refuse — never feed old-epoch frames into the farm.
		l.logf("repl: follower at epoch %d ahead of local %d: closing (stale leader)", hello.epoch, epoch)
		return
	}
	if err := writeHandshake(bc.bw, handshake{epoch: epoch, lsn: l.st.LSN()}); err != nil {
		return
	}
	if err := s.flush(bc); err != nil {
		return
	}

	// Ack reader. Session teardown: reader exits on conn close/error and
	// closes done; the writer exits on done or write error and closes the
	// conn, each side unblocking the other.
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		defer close(s.done)
		for {
			typ, _, payload, err := readMsg(bc.br)
			if err != nil {
				return
			}
			if typ != msgAck {
				l.logf("repl: unexpected message type %d from follower", typ)
				return
			}
			lsn, err := readU64(payload)
			if err != nil {
				return
			}
			for {
				cur := s.acked.Load()
				if lsn <= cur || s.acked.CompareAndSwap(cur, lsn) {
					break
				}
			}
			s.lastAck.Store(time.Now().UnixNano())
			l.acksTotal.Inc()
			l.mu.Lock()
			notify := l.ackNotify
			l.ackNotify = make(chan struct{})
			l.mu.Unlock()
			close(notify)
			l.updateLag()
		}
	}()

	if err := s.stream(bc, hello.lsn); err != nil && !isClosed(err) {
		l.logf("repl: session ended: %v", err)
	}
}

// stream catches the follower up from cursor and then follows the live
// log, choosing per iteration the cheapest source that still covers the
// cursor: ring, then segments, then a full snapshot.
func (s *session) stream(bc bufConn, cursor uint64) error {
	l := s.l
	idle := time.NewTimer(heartbeatEvery)
	defer idle.Stop()
	for {
		select {
		case <-s.done:
			return nil
		default:
		}
		// A follower below the compaction floor can only start from a
		// full snapshot: the segments no longer reach back that far.
		if cursor < l.st.SnapshotLSN() {
			var err error
			if cursor, err = s.sendSnapshot(bc); err != nil {
				return err
			}
			continue
		}
		e, ok, evicted, wait := l.ring.next(cursor)
		switch {
		case ok:
			if err := writeMsg(bc.bw, msgFrame, e.shard, e.frame); err != nil {
				return err
			}
			cursor = e.lsn
			l.framesShipped.Inc()
			// Batch ring drains into one flush: only flush when the next
			// frame is not immediately available.
			if _, ok, _, _ := l.ring.next(cursor); ok {
				continue
			}
			if err := s.flush(bc); err != nil {
				return err
			}
		case evicted:
			frames, err := l.st.SegmentFrames(cursor)
			if err != nil {
				return err
			}
			sent := false
			for _, f := range frames {
				if f.LSN != cursor+1 {
					break // contiguous prefix only; the rest next round
				}
				if err := writeMsg(bc.bw, msgFrame, uint32(f.Shard), f.Frame); err != nil {
					return err
				}
				cursor = f.LSN
				sent = true
				l.framesShipped.Inc()
			}
			if sent {
				if err := s.flush(bc); err != nil {
					return err
				}
			} else {
				// The segments cannot cover the cursor — an in-memory
				// leader has none, or compaction/eviction raced past us.
				// A full snapshot always can.
				if cursor, err = s.sendSnapshot(bc); err != nil {
					return err
				}
			}
		default:
			if err := s.waitOrHeartbeat(bc, wait, idle); err != nil {
				return err
			}
		}
	}
}

// flush drains the buffered writer under a write deadline.
func (s *session) flush(bc bufConn) error {
	s.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	return bc.bw.Flush()
}

func (s *session) waitOrHeartbeat(bc bufConn, wait <-chan struct{}, idle *time.Timer) error {
	if !idle.Stop() {
		select {
		case <-idle.C:
		default:
		}
	}
	idle.Reset(heartbeatEvery)
	select {
	case <-wait:
		return nil
	case <-s.done:
		return nil
	case <-idle.C:
		if err := writeMsg(bc.bw, msgHeartbeat, 0, u64payload(s.l.st.LSN())); err != nil {
			return err
		}
		return s.flush(bc)
	}
}

// sendSnapshot ships a full consistent cut and returns its LSN as the
// new cursor.
func (s *session) sendSnapshot(bc bufConn) (uint64, error) {
	lsn, kvs, err := s.l.st.ReplicationSnapshot()
	if err != nil {
		return 0, err
	}
	var begin [16]byte
	putU64(begin[:8], lsn)
	putU64(begin[8:], uint64(len(kvs)))
	if err := writeMsg(bc.bw, msgSnapBegin, 0, begin[:]); err != nil {
		return 0, err
	}
	chunk := make([]byte, 0, snapKVChunk)
	var n uint32
	flushChunk := func() error {
		if n == 0 {
			return nil
		}
		var cnt [4]byte
		putU32(cnt[:], n)
		if err := writeMsg(bc.bw, msgSnapKV, 0, append(cnt[:], chunk...)); err != nil {
			return err
		}
		chunk = chunk[:0]
		n = 0
		return nil
	}
	for _, kv := range kvs {
		var lens [4]byte
		putU32(lens[:], uint32(len(kv.Key)))
		chunk = append(chunk, lens[:]...)
		chunk = append(chunk, kv.Key...)
		putU32(lens[:], uint32(len(kv.Value)))
		chunk = append(chunk, lens[:]...)
		chunk = append(chunk, kv.Value...)
		n++
		if len(chunk) >= snapKVChunk {
			if err := flushChunk(); err != nil {
				return 0, err
			}
		}
	}
	if err := flushChunk(); err != nil {
		return 0, err
	}
	if err := writeMsg(bc.bw, msgSnapEnd, 0, u64payload(lsn)); err != nil {
		return 0, err
	}
	if err := s.flush(bc); err != nil {
		return 0, err
	}
	s.l.snapsShipped.Inc()
	return lsn, nil
}

// close tears the session down: closing the conn unblocks the ack
// reader (which owns s.done and is wg-tracked on its own), so nothing
// here waits on it — early handshake-refusal paths never started it.
func (s *session) close() {
	s.conn.Close()
	l := s.l
	l.mu.Lock()
	delete(l.sessions, s)
	l.followersG.Set(float64(len(l.sessions)))
	// A departing follower can only shrink the ack quorum; wake waiters
	// so they re-count (and fail fast once the leader closes).
	notify := l.ackNotify
	l.ackNotify = make(chan struct{})
	l.mu.Unlock()
	close(notify)
	l.updateLag()
}

// updateLag re-exports repl_follower_lag_lsns: the worst follower's
// distance behind the store's committed LSN (0 with no followers).
// Called on every ack, session open, and session close.
func (l *Leader) updateLag() {
	lsn := l.st.LSN()
	l.mu.Lock()
	var max uint64
	for s := range l.sessions {
		if a := s.acked.Load(); lsn > a && lsn-a > max {
			max = lsn - a
		}
	}
	l.mu.Unlock()
	l.lagG.Set(float64(max))
}

func (l *Leader) logf(format string, args ...any) {
	if l.logger != nil {
		l.logger.Warn(fmt.Sprintf(format, args...))
	}
}

func isClosed(err error) bool {
	return errors.Is(err, net.ErrClosed)
}

// frameRing holds recently committed frames keyed by LSN. OnCommit order
// across segments is not global LSN order (each segment's lock serialises
// only its own frames), so the ring tolerates out-of-order arrival and
// sessions consume strictly contiguous LSNs from it.
type frameRing struct {
	mu        sync.Mutex
	cap       int
	entries   map[uint64]ringEntry
	lsns      []uint64 // sorted keys of entries
	evictedTo uint64   // every LSN <= this is gone from the ring
	notify    chan struct{}
}

type ringEntry struct {
	lsn   uint64
	shard uint32
	frame []byte
}

func newFrameRing(capacity int, evictedTo uint64) *frameRing {
	return &frameRing{
		cap:       capacity,
		entries:   map[uint64]ringEntry{},
		evictedTo: evictedTo,
		notify:    make(chan struct{}),
	}
}

func (r *frameRing) add(lsn uint64, shard uint32, frame []byte) {
	r.mu.Lock()
	if lsn <= r.evictedTo {
		r.mu.Unlock()
		return
	}
	if _, dup := r.entries[lsn]; !dup {
		r.entries[lsn] = ringEntry{lsn: lsn, shard: shard, frame: frame}
		pos := sort.Search(len(r.lsns), func(i int) bool { return r.lsns[i] >= lsn })
		r.lsns = append(r.lsns, 0)
		copy(r.lsns[pos+1:], r.lsns[pos:])
		r.lsns[pos] = lsn
		for len(r.lsns) > r.cap {
			low := r.lsns[0]
			r.lsns = r.lsns[1:]
			delete(r.entries, low)
			if low > r.evictedTo {
				r.evictedTo = low
			}
		}
	}
	notify := r.notify
	r.notify = make(chan struct{})
	r.mu.Unlock()
	close(notify)
}

// next looks up cursor+1. Exactly one of the return conditions holds:
// ok (the entry is here), evicted (fall back to segments/snapshot), or
// neither — the frame is still in flight; wait on the returned channel.
func (r *frameRing) next(cursor uint64) (e ringEntry, ok, evicted bool, wait <-chan struct{}) {
	r.mu.Lock()
	defer r.mu.Unlock()
	want := cursor + 1
	if e, found := r.entries[want]; found {
		return e, true, false, nil
	}
	if want <= r.evictedTo {
		return ringEntry{}, false, true, nil
	}
	return ringEntry{}, false, false, r.notify
}

// wake unblocks all waiters (leader shutdown).
func (r *frameRing) wake() {
	r.mu.Lock()
	notify := r.notify
	r.notify = make(chan struct{})
	r.mu.Unlock()
	close(notify)
}

package store

import "sync"

// DefaultBatcherMaxOps bounds how many operations a coalesced group may
// carry. One WAL frame per group keeps the frame (and the blast radius of a
// torn tail) bounded; 128 ops comfortably covers a burst of login commits
// while staying far under typical record sizes × frame limits.
const DefaultBatcherMaxOps = 128

// Batcher coalesces concurrent, independent Apply calls into shared WAL
// frames. The store's group commit already merges *fsyncs*; the Batcher
// merges the frames themselves, so a burst of single-record commits (the
// per-login replay/fail-counter saves) costs one encode + one flush instead
// of N.
//
// The first caller to arrive becomes the leader: it commits its own batch,
// then drains any groups that formed while it was writing. Followers append
// their ops to the open group and sleep until the leader commits it. A
// group is all-or-nothing — it lands in one checksummed frame — which is
// only sound because callers are independent: no caller may depend on
// another in-flight caller's ops NOT being committed with its own.
//
// The zero Batcher is not usable; construct with NewBatcher.
type Batcher struct {
	s      *Store
	maxOps int

	mu      sync.Mutex
	queue   []*batchGroup // groups awaiting the leader, oldest first
	leading bool
}

type batchGroup struct {
	ops  []Op
	done chan struct{}
	err  error
}

// NewBatcher wraps s. maxOps bounds the ops per coalesced frame
// (0 selects DefaultBatcherMaxOps).
func NewBatcher(s *Store, maxOps int) *Batcher {
	if maxOps <= 0 {
		maxOps = DefaultBatcherMaxOps
	}
	return &Batcher{s: s, maxOps: maxOps}
}

// Apply commits ops, possibly sharing a WAL frame with other concurrent
// Apply calls. It blocks until ops are as durable as a direct Store.Apply
// would have made them.
func (b *Batcher) Apply(ops []Op) error {
	if len(ops) == 0 {
		return nil
	}
	b.mu.Lock()
	if b.leading {
		// A leader is writing: join (or open) the youngest group. The ops
		// are copied so the caller may reuse its slice once we return.
		g := b.lastOpenGroup()
		g.ops = append(g.ops, ops...)
		b.mu.Unlock()
		<-g.done
		return g.err
	}
	b.leading = true
	b.mu.Unlock()

	// Leader: commit our own ops first, then drain whatever piled up.
	err := b.s.Apply(ops)
	for {
		b.mu.Lock()
		if len(b.queue) == 0 {
			b.leading = false
			b.mu.Unlock()
			return err
		}
		g := b.queue[0]
		b.queue = b.queue[1:]
		b.mu.Unlock()
		g.err = b.s.Apply(g.ops)
		close(g.done)
	}
}

// lastOpenGroup returns the youngest group with room, opening a new one
// when the queue is empty or its tail is full. Caller holds b.mu.
func (b *Batcher) lastOpenGroup() *batchGroup {
	if n := len(b.queue); n > 0 && len(b.queue[n-1].ops) < b.maxOps {
		return b.queue[n-1]
	}
	g := &batchGroup{done: make(chan struct{})}
	b.queue = append(b.queue, g)
	return g
}

// Put commits a copy of value under key through the coalescing path.
func (b *Batcher) Put(key string, value []byte) error {
	return b.Apply([]Op{{Key: key, Value: append([]byte(nil), value...)}})
}

// Delete removes key through the coalescing path.
func (b *Batcher) Delete(key string) error {
	return b.Apply([]Op{{Key: key, Delete: true}})
}

// queuedOps reports how many follower ops are waiting on the leader
// (tests only).
func (b *Batcher) queuedOps() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, g := range b.queue {
		n += len(g.ops)
	}
	return n
}

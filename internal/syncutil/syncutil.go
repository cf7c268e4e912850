// Package syncutil provides the concurrency primitives the hot
// authentication path is built on. Its centrepiece is StripedMutex, a
// fixed-size lock table that gives near-per-key mutual exclusion without
// per-key allocation: otpd serialises validation per *user* (fail counter
// and replay high-water-mark updates are read-modify-write), but a single
// process-wide mutex would serialise every user behind one core. Striping
// by a hash of the key lets unrelated users proceed in parallel while two
// operations on the same key always contend on the same stripe.
package syncutil

import "sync"

// DefaultStripes is the stripe count used by NewStriped(0). 256 stripes
// keep the collision probability negligible for the concurrency levels a
// single process sees (even 64 simultaneous validations collide on a
// stripe with probability < 1/4, and a collision only costs serialisation
// of those two requests, not correctness).
const DefaultStripes = 256

// StripedMutex is a hash-striped lock table keyed by string. Two calls
// with the same key always map to the same underlying mutex, so holding
// Lock(key) gives mutual exclusion for that key. Distinct keys may share a
// stripe (false sharing) — that is a performance artifact, never a
// correctness one. The zero value is not ready; use NewStriped.
type StripedMutex struct {
	stripes []sync.Mutex
	mask    uint64
}

// NewStriped returns a table with n stripes rounded up to a power of two;
// n <= 0 means DefaultStripes.
func NewStriped(n int) *StripedMutex {
	if n <= 0 {
		n = DefaultStripes
	}
	size := 1
	for size < n {
		size <<= 1
	}
	return &StripedMutex{stripes: make([]sync.Mutex, size), mask: uint64(size - 1)}
}

// FNV-1a, inlined so hashing a key allocates nothing.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func (m *StripedMutex) index(key string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	return h & m.mask
}

// Lock acquires the stripe for key.
func (m *StripedMutex) Lock(key string) { m.stripes[m.index(key)].Lock() }

// Unlock releases the stripe for key.
func (m *StripedMutex) Unlock(key string) { m.stripes[m.index(key)].Unlock() }

// Stripes reports the table size (always a power of two).
func (m *StripedMutex) Stripes() int { return len(m.stripes) }

// Workers runs the long-lived goroutines a server keeps waiting on one
// source, a socket's reads or a listener's Accept, and bounds the idle
// ones. Each worker owns a *T of scratch: it takes one from a pool when it
// starts and puts it back when it exits, so the workers a burst starts
// past the idle bound reuse the scratch of those that exited before. The
// zero value is ready for Start.
type Workers[T any] struct {
	wait    func(*T) bool
	serve   func(*T)
	scratch sync.Pool
	wg      sync.WaitGroup
	mu      sync.Mutex
	more    int // workers waiting besides one
}

// maxIdleWorkers bounds the workers waiting: one that finishes while this
// many others wait exits. Up to this many requests in flight at once are
// served with no worker started; each further one starts a worker that
// later exits.
const maxIdleWorkers = 2

// Start starts the first worker; it is called once. A worker loops: wait
// blocks until work is in its scratch and reports false once the source
// is closed, and serve handles the work. The last waiting worker starts
// its replacement before serve, so one always waits and slow work never
// holds up fresh work.
func (w *Workers[T]) Start(wait func(*T) bool, serve func(*T)) {
	w.wait, w.serve = wait, serve
	w.scratch.New = func() any { return new(T) }
	w.spawn()
}

// Wait waits until every worker has exited, which each does once wait
// reports false.
func (w *Workers[T]) Wait() { w.wg.Wait() }

func (w *Workers[T]) spawn() {
	w.wg.Add(1)
	go w.run()
}

func (w *Workers[T]) run() {
	defer w.wg.Done()
	t := w.scratch.Get().(*T)
	defer w.scratch.Put(t)
	for w.wait(t) {
		if w.busy() {
			w.spawn()
		}
		w.serve(t)
		if !w.idle() {
			return
		}
	}
}

// busy takes a worker that got work out of the waiting ones and reports
// whether it was the last, which must then start its replacement.
func (w *Workers[T]) busy() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.more == 0 {
		return true
	}
	w.more--
	return false
}

// idle counts a worker that finished its work as waiting again, unless
// maxIdleWorkers others wait: then it reports false and the worker exits.
func (w *Workers[T]) idle() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.more+1 >= maxIdleWorkers {
		return false
	}
	w.more++
	return true
}

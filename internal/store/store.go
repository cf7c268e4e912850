// Package store implements the embedded key-value store that stands in for
// the paper's MariaDB repository (§3.1): a hash-sharded in-memory map
// backed by per-shard append-only write-ahead logs with snapshot
// compaction.
//
// The OTP back end keeps token records here (with secrets already sealed by
// cryptoutil.Box before they arrive) and the IDM keeps account records;
// otpd's HMAC-chained audit log is in memory only. The store offers the
// operations those components need — Put/Get/Delete, prefix scans, and
// atomic batches — with crash recovery via parallel WAL replay. Both read
// their records through View, which keeps one decoded copy per key until
// the key is next written.
//
// Keys hash to one of N shards (N a power of two, fixed when the directory
// is created), each with its own RWMutex, map, WAL segment, and snapshot,
// so unrelated users never contend. A batch is one seglog frame
// (length-prefixed, CRC-checksummed, trailing commit marker) in exactly
// one segment (the lowest involved shard), which makes Apply
// crash-atomic: recovery truncates a torn tail to the last complete batch
// and never replays a partial one. In Sync mode with GroupCommit,
// concurrent Apply callers coalesce into a single fsync per segment.
package store

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"openmfa/internal/obs"
	"openmfa/internal/seglog"
)

// ErrNotFound is returned by Get when the key is absent.
var ErrNotFound = errors.New("store: key not found")

// ErrClosed is returned by all operations after Close.
var ErrClosed = errors.New("store: closed")

// ErrFollower is returned by Apply (and Put/Delete) while the store is in
// follower mode: a replica applies frames shipped from its leader via
// ApplyReplicated and must never mint LSNs of its own, or the two logs
// would diverge.
var ErrFollower = errors.New("store: follower (read-only) mode")

// ErrStaleSnapshot is returned by InstallReplicaSnapshot when the offered
// snapshot is older than the state already present.
var ErrStaleSnapshot = errors.New("store: replica snapshot older than local state")

// MaxShards caps the shard count; more shards than this buys nothing and
// bloats the file-descriptor footprint.
const MaxShards = 256

// Op is a single mutation inside a Batch.
type Op struct {
	Key string
	// Value is kept as it is handed in, not copied: once Apply is called
	// the store owns it, and the writer must not change it afterwards.
	// (Put copies for a caller that reuses its buffer.)
	Value  []byte
	Delete bool
	// Decoded, when set, is Value's decoded form: View returns it until
	// Key is written again, without decoding Value. It is neither logged
	// nor replicated, so a writer that hands it in must hand in exactly
	// what View's decode would make of Value, and must not change it
	// afterwards.
	Decoded any
}

// KV is a key-value pair returned by Scan.
type KV struct {
	Key   string
	Value []byte
}

// Options configures Open.
type Options struct {
	// Sync forces an fsync before a committed batch is acknowledged.
	// Durable but slow; the rollout simulator runs with Sync off,
	// matching a production database's relaxed-durability benchmarks.
	Sync bool
	// Shards is the shard count, rounded up to a power of two and capped
	// at MaxShards; zero picks a GOMAXPROCS-scaled default. The count is
	// fixed when the data directory is created: reopening an existing
	// directory always uses the persisted count.
	Shards int
	// GroupCommit lets concurrent Apply callers in Sync mode share one
	// fsync per WAL segment instead of paying one each. Per-key ordering
	// is unchanged; only fsync scheduling differs.
	GroupCommit bool
	// Obs, when set, receives store_apply_total, store_fsync_total,
	// store_fsync_batch_size, and store_recovery_seconds.
	Obs *obs.Registry
}

// shard is one lock domain: a map partition plus its WAL segment and
// group-commit state.
type shard struct {
	mu   sync.RWMutex
	data map[string][]byte
	// decoded holds the decoded form of data[key] for keys a View has
	// decoded or a writer handed in (nil until the first). applyOps
	// replaces or clears it with every write of the key, so it never
	// outlives the bytes it came from.
	decoded map[string]any

	wal    *os.File
	walBuf *bufio.Writer
	walLen int   // ops logged to this segment since the last compaction
	walErr error // sticky fail-stop error after a WAL write fault

	// Group-commit state. seq numbers batches flushed to this segment
	// (assigned under mu); synced is the highest seq covered by an
	// fsync. A committer whose seq is not yet synced either becomes the
	// sync leader or waits on gcond for one fsync to cover it.
	gmu     sync.Mutex
	gcond   *sync.Cond
	seq     atomic.Uint64
	synced  uint64
	syncing bool
	gerr    error
}

// Replicator observes and gates committed batches; a repl.Leader is the
// production implementation. OnCommit runs under the logging segment's
// shard lock immediately after the frame is flushed, so per-segment hook
// order matches commit order; WaitCommitted runs after the shard locks are
// released and may block (a synchronous leader waits for follower acks). A
// non-nil WaitCommitted error is returned from Apply: the batch is applied
// and durable locally but its farm-level durability is unknown, so callers
// must treat the operation as failed (fail closed).
type Replicator interface {
	OnCommit(lsn uint64, shard int, frame []byte)
	WaitCommitted(lsn uint64) error
}

// replicatorBox wraps the interface so it can live in an atomic.Pointer.
type replicatorBox struct{ r Replicator }

// Store is a sharded WAL-backed KV store safe for concurrent use.
type Store struct {
	dir    string // empty for pure in-memory stores
	sync   bool
	group  bool
	shards []*shard
	mask   uint32
	lsn    atomic.Uint64
	closed atomic.Bool

	// snapFloor is the highest LSN covered by the on-disk snapshots: WAL
	// segments hold exactly the frames with LSN > snapFloor. A follower
	// whose cursor is at or below the floor cannot catch up from segments
	// and needs a full snapshot.
	snapFloor atomic.Uint64
	// epoch is the replication fencing epoch persisted in the meta file;
	// epochMu serialises bump-and-persist so a lower epoch can never land
	// on disk after a higher one.
	epoch   atomic.Uint64
	epochMu sync.Mutex
	// follower blocks local Apply while the store replicates from a leader.
	follower atomic.Bool
	// replicator, when set, observes and gates every committed batch.
	replicator atomic.Pointer[replicatorBox]

	applyTotal *obs.Counter
	fsyncTotal *obs.Counter
	fsyncBatch *obs.Histogram

	// syncDelay, when set (tests only), runs in the group-commit leader
	// after it claims the sync slot and before the fsync, widening the
	// coalescing window deterministically.
	syncDelay func()
	// dirSync, when set (tests only), replaces the data-directory fsync
	// that orders snapshot renames before WAL truncation in Compact.
	dirSync func(dir string) error
	// compactFault, when set (tests only), is consulted before each
	// shard's WAL truncation during compaction to inject failures.
	compactFault func(shard int) error
}

// defaultShards scales the shard count with GOMAXPROCS (4× rounded up to a
// power of two) so the lock domains outnumber the CPUs that can contend.
func defaultShards() int {
	return normalizeShards(4 * runtime.GOMAXPROCS(0))
}

// normalizeShards rounds n up to a power of two in [1, MaxShards]; n <= 0
// selects the default.
func normalizeShards(n int) int {
	if n <= 0 {
		return defaultShards()
	}
	if n > MaxShards {
		return MaxShards
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func newStore(n int, opts Options) *Store {
	s := &Store{
		sync:   opts.Sync,
		group:  opts.GroupCommit,
		shards: make([]*shard, n),
		mask:   uint32(n - 1),
	}
	for i := range s.shards {
		sh := &shard{}
		sh.reset(0)
		sh.gcond = sync.NewCond(&sh.gmu)
		s.shards[i] = sh
	}
	if opts.Obs != nil {
		s.applyTotal = opts.Obs.Counter("store_apply_total")
		s.fsyncTotal = opts.Obs.Counter("store_fsync_total")
		s.fsyncBatch = opts.Obs.Histogram("store_fsync_batch_size",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128})
	}
	return s
}

// OpenMemory returns a volatile store with no backing files and the
// default shard count.
func OpenMemory() *Store { return OpenMemoryShards(0) }

// OpenMemoryShards returns a volatile store with n shards (0 = default).
func OpenMemoryShards(n int) *Store {
	return newStore(normalizeShards(n), Options{})
}

// Open loads (or creates) a store in dir, replaying snapshots and WAL
// segments across shards in parallel.
func Open(dir string, opts Options) (*Store, error) {
	t0 := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	n, epoch, err := resolveMeta(dir, opts.Shards)
	if err != nil {
		return nil, err
	}
	s := newStore(n, opts)
	s.dir = dir
	s.epoch.Store(epoch)
	if err := s.recover(); err != nil {
		return nil, err
	}
	for i, sh := range s.shards {
		f, err := os.OpenFile(s.walPath(i), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			s.closeFiles()
			return nil, fmt.Errorf("store: %w", err)
		}
		sh.wal = f
		sh.walBuf = bufio.NewWriter(f)
	}
	if opts.Obs != nil {
		opts.Obs.Gauge("store_recovery_seconds").Set(time.Since(t0).Seconds())
	}
	return s, nil
}

const metaHeader = "openmfa-store v2"

func metaPath(dir string) string { return filepath.Join(dir, "meta") }

// syncDir fsyncs a directory so preceding renames inside it are durable.
// Without this, a crash can lose a rename that later operations (a WAL
// truncate) already assumed was on disk.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func (s *Store) syncDataDir() error {
	if s.dirSync != nil {
		return s.dirSync(s.dir)
	}
	return syncDir(s.dir)
}

// writeMeta atomically rewrites the meta file (write-temp, rename, fsync
// the directory).
func writeMeta(dir string, shards int, epoch uint64) error {
	body := metaHeader + "\nshards " + strconv.Itoa(shards) + "\nepoch " + strconv.FormatUint(epoch, 10) + "\n"
	tmp := metaPath(dir) + ".tmp"
	if err := os.WriteFile(tmp, []byte(body), 0o644); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, metaPath(dir)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// resolveMeta reads the persisted shard count and replication epoch, or
// persists the requested count for a fresh directory. The count is
// immutable after creation because keys hash to shards: rehashing on
// reopen would strand records in the wrong segment. Meta files written
// before the epoch line existed parse as epoch 0.
func resolveMeta(dir string, requested int) (int, uint64, error) {
	b, err := os.ReadFile(metaPath(dir))
	if errors.Is(err, os.ErrNotExist) {
		n := normalizeShards(requested)
		if err := writeMeta(dir, n, 0); err != nil {
			return 0, 0, err
		}
		return n, 0, nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("store: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) < 2 || len(lines) > 3 || lines[0] != metaHeader || !strings.HasPrefix(lines[1], "shards ") {
		return 0, 0, fmt.Errorf("store: corrupt meta file %s", metaPath(dir))
	}
	n, err := strconv.Atoi(strings.TrimPrefix(lines[1], "shards "))
	if err != nil || n < 1 || n > MaxShards || n&(n-1) != 0 {
		return 0, 0, fmt.Errorf("store: corrupt meta file %s: bad shard count", metaPath(dir))
	}
	var epoch uint64
	if len(lines) == 3 {
		if !strings.HasPrefix(lines[2], "epoch ") {
			return 0, 0, fmt.Errorf("store: corrupt meta file %s: bad epoch line", metaPath(dir))
		}
		epoch, err = strconv.ParseUint(strings.TrimPrefix(lines[2], "epoch "), 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("store: corrupt meta file %s: bad epoch", metaPath(dir))
		}
	}
	return n, epoch, nil
}

// Epoch returns the replication fencing epoch (0 until a leader bumps it).
func (s *Store) Epoch() uint64 { return s.epoch.Load() }

// SetEpoch persists a new fencing epoch. Epochs are monotonic: lowering
// one is an error, re-asserting the current value is a no-op. On-disk
// stores survive restarts with the epoch intact (it lives in the meta
// file); in-memory stores keep it for the process lifetime only.
func (s *Store) SetEpoch(e uint64) error {
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	cur := s.epoch.Load()
	if e < cur {
		return fmt.Errorf("store: epoch %d below current %d", e, cur)
	}
	if e == cur {
		return nil
	}
	if s.dir != "" {
		if err := writeMeta(s.dir, len(s.shards), e); err != nil {
			return err
		}
	}
	s.epoch.Store(e)
	return nil
}

// SetFollowerMode switches local Apply on (false) or off (true). While a
// follower, only ApplyReplicated mutates the store.
func (s *Store) SetFollowerMode(on bool) { s.follower.Store(on) }

// FollowerMode reports whether local Apply is blocked.
func (s *Store) FollowerMode() bool { return s.follower.Load() }

// SetReplicator installs (or, with nil, removes) the replication observer
// consulted by Apply.
func (s *Store) SetReplicator(r Replicator) {
	if r == nil {
		s.replicator.Store(nil)
		return
	}
	s.replicator.Store(&replicatorBox{r: r})
}

// LSN returns the highest committed log sequence number.
func (s *Store) LSN() uint64 { return s.lsn.Load() }

// SnapshotLSN returns the compaction floor: the highest LSN covered by
// the on-disk snapshots. WAL segments hold exactly the frames above it.
func (s *Store) SnapshotLSN() uint64 { return s.snapFloor.Load() }

func (s *Store) walPath(i int) string {
	return filepath.Join(s.dir, fmt.Sprintf("shard-%03d.wal", i))
}

func (s *Store) snapshotPath(i int) string {
	return filepath.Join(s.dir, fmt.Sprintf("shard-%03d.kv", i))
}

// WALPaths lists the per-shard WAL segment paths (nil for in-memory
// stores); exposed for operational tooling and the crash-recovery harness.
func (s *Store) WALPaths() []string {
	if s.dir == "" {
		return nil
	}
	out := make([]string, len(s.shards))
	for i := range s.shards {
		out[i] = s.walPath(i)
	}
	return out
}

// NumShards reports the shard count.
func (s *Store) NumShards() int { return len(s.shards) }

// Err reports the first shard's sticky WAL fail-stop error, nil while
// every shard is healthy. A non-nil result is permanent for the life of
// the process — writes to that shard fail closed — which makes Err a
// natural incident trigger: the moment it trips, operators need the
// profile ring from just before the fault, not after a restart.
func (s *Store) Err() error {
	if s == nil {
		return nil
	}
	for _, sh := range s.shards {
		sh.mu.RLock()
		err := sh.walErr
		sh.mu.RUnlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// ShardFor reports which shard holds key; exposed for tooling and tests.
func (s *Store) ShardFor(key string) int { return s.shardIndex(key) }

// shardIndex hashes key to a shard with FNV-1a.
func (s *Store) shardIndex(key string) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return int(h & s.mask)
}

func (s *Store) shardFor(key string) *shard { return s.shards[s.shardIndex(key)] }

// recover loads every shard's snapshot and WAL segment in parallel, merges
// the decoded batches by LSN, and applies the merged op stream back across
// the shards in parallel (each key lands in exactly one shard, so per-key
// order is preserved).
func (s *Store) recover() error {
	n := len(s.shards)
	snaps := make([][]walBatch, n)
	segs := make([][]walBatch, n)
	errs := make([]error, n)
	s.eachShardParallel(func(i int) { snaps[i], segs[i], errs[i] = s.recoverShard(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	// Merge segments by LSN. Each segment is already LSN-ascending
	// (appends within a segment serialize on the shard lock), so a
	// global sort is a merge of sorted runs.
	var all []walBatch
	for _, bs := range segs {
		all = append(all, bs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].lsn < all[j].lsn })

	// Snapshot contents go first (every segment frame is newer), then the
	// segments in LSN order, each op routed to its shard. The LSN clock
	// resumes from the highest LSN seen anywhere: WAL frames, or — after a
	// compaction emptied the segments — the snapshot header frames that
	// record where the clock stood at compact time. Without the header, a
	// compact+reopen would reissue LSNs from 1.
	perShard := make([][]Op, n)
	route := func(ops []Op) {
		for _, op := range ops {
			d := s.shardIndex(op.Key)
			perShard[d] = append(perShard[d], op)
		}
	}
	var floor uint64
	for _, bs := range snaps {
		for _, b := range bs {
			floor = max(floor, b.lsn)
			route(b.ops)
		}
	}
	maxLSN := floor
	for _, b := range all {
		maxLSN = max(maxLSN, b.lsn)
		route(b.ops)
	}
	// Every op in perShard[i] hashes to shard i, so the goroutines are disjoint.
	s.eachShardParallel(func(i int) { s.applyOps(perShard[i]) })
	s.lsn.Store(maxLSN)
	s.snapFloor.Store(floor)
	return nil
}

// eachShardParallel runs f once per shard index, concurrently, and waits.
func (s *Store) eachShardParallel(f func(i int)) {
	var wg sync.WaitGroup
	for i := range s.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f(i)
		}(i)
	}
	wg.Wait()
}

// recoverShard reads shard i's snapshot (strict) and WAL segment
// (truncating a torn tail) and returns the batches of each. A snapshot
// opens with a zero-op header frame carrying the compaction LSN (absent
// in snapshots written before the LSN fix); its chunks carry LSN 0. Only
// this goroutine touches shard i during recovery.
func (s *Store) recoverShard(i int) (snap, seg []walBatch, err error) {
	data, err := readIfExists(s.snapshotPath(i))
	if err != nil {
		return nil, nil, err
	}
	if snap, err = parseSnapshot(data); err != nil {
		return nil, nil, err
	}
	wal, err := readIfExists(s.walPath(i))
	if err != nil {
		return nil, nil, err
	}
	// A frame whose payload does not decode is damage like any other: the
	// committed prefix ends there, so the scan error needs no handling.
	valid, _ := scanBatches(wal, func(b walBatch, _, _ int) {
		seg = append(seg, b)
		s.shards[i].walLen += len(b.ops)
	})
	if valid < len(wal) {
		// Torn tail from a crash mid-append: drop the incomplete frame
		// on disk too, so the next append starts at a frame boundary.
		if err := os.Truncate(s.walPath(i), int64(valid)); err != nil {
			return nil, nil, fmt.Errorf("store: %w", err)
		}
	}
	return snap, seg, nil
}

// readIfExists reads a snapshot or segment file; a missing one is empty.
func readIfExists(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("store: %w", err)
	}
	return data, nil
}

// reset empties the shard's maps, sized for n keys.
func (sh *shard) reset(n int) {
	sh.data = make(map[string][]byte, n)
	sh.decoded = nil
}

// setDecoded records v as the decoded form of data[key].
func (sh *shard) setDecoded(key string, v any) {
	if sh.decoded == nil {
		sh.decoded = make(map[string]any)
	}
	sh.decoded[key] = v
}

// applyOps applies ops to the shard maps, routing each key to its shard.
// It is the one place ops reach a map: each op replaces a key's bytes and
// its decoded form together, with the op's Decoded or with nothing. The
// caller holds the write lock of every shard ops touch (or, during
// recovery, owns them outright).
func (s *Store) applyOps(ops []Op) {
	for _, op := range ops {
		sh := s.shardFor(op.Key)
		if op.Delete {
			delete(sh.data, op.Key)
			delete(sh.decoded, op.Key)
			continue
		}
		sh.data[op.Key] = op.Value
		if op.Decoded != nil {
			sh.setDecoded(op.Key, op.Decoded)
		} else {
			delete(sh.decoded, op.Key)
		}
	}
}

// View returns the decoded form of key's value: the one a writer handed
// in with its Op, or decode's result for the stored bytes. decode runs at
// most once per write of key, under the shard's write lock, so it must
// not call the store, and it must not keep the slice it is given. The
// value is shared by every View of key until the next write, so callers
// must treat it as read-only and copy it before changing it. A hit takes
// a read lock and allocates nothing. decode's error is returned as is and
// nothing is kept.
func (s *Store) View(key string, decode func([]byte) (any, error)) (any, error) {
	sh := s.shardFor(key)
	sh.mu.RLock()
	if s.closed.Load() {
		sh.mu.RUnlock()
		return nil, ErrClosed
	}
	v, ok := sh.decoded[key]
	sh.mu.RUnlock()
	if ok {
		return v, nil
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if s.closed.Load() {
		return nil, ErrClosed
	}
	if v, ok := sh.decoded[key]; ok {
		return v, nil // decoded by another View while this one waited
	}
	b, ok := sh.data[key]
	if !ok {
		return nil, ErrNotFound
	}
	v, err := decode(b)
	if err != nil {
		return nil, err
	}
	// A copy of the key, so the caller's key never escapes: one built on
	// its stack stays there.
	sh.setDecoded(strings.Clone(key), v)
	return v, nil
}

// Get returns the value for key. The returned slice is a copy.
func (s *Store) Get(key string) ([]byte, error) {
	sh := s.shardFor(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if s.closed.Load() {
		return nil, ErrClosed
	}
	v, ok := sh.data[key]
	if !ok {
		return nil, ErrNotFound
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out, nil
}

// Has reports whether key exists (false after Close).
func (s *Store) Has(key string) bool {
	sh := s.shardFor(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if s.closed.Load() {
		return false
	}
	_, ok := sh.data[key]
	return ok
}

// Put stores a copy of value under key; the caller keeps value.
func (s *Store) Put(key string, value []byte) error {
	return s.Apply([]Op{{Key: key, Value: append([]byte(nil), value...)}})
}

// Delete removes key. Deleting an absent key is not an error.
func (s *Store) Delete(key string) error {
	return s.Apply([]Op{{Key: key, Delete: true}})
}

// Apply commits a batch of operations atomically: either every op is
// visible and logged, or none is — including across a crash, because the
// whole batch is one checksummed WAL frame. Batches spanning shards lock
// the involved shards in ascending order and log to the lowest one. A
// batch too large for one frame is refused before it consumes an LSN.
func (s *Store) Apply(batch []Op) error {
	if s.closed.Load() {
		return ErrClosed
	}
	if s.follower.Load() {
		return ErrFollower
	}
	if len(batch) == 0 {
		return nil
	}
	var idxBuf [8]int
	idxs, err := s.lockShards(batch, idxBuf[:0])
	if err != nil {
		return err
	}
	seg, repl := s.shards[idxs[0]], s.replicator.Load()
	if err := seg.walErr; err != nil {
		s.unlockShards(idxs)
		return err
	}
	// An in-memory store without a replicator has no reader for a frame,
	// so it encodes none. A frame the decoder would reject is refused
	// before it consumes an LSN: flushed anyway, it would read back as a
	// torn tail and take every later frame in its segment with it.
	encode := s.dir != "" || repl != nil
	if encode {
		if plen := payloadLen(batch); plen > seglog.MaxPayloadSize {
			s.unlockShards(idxs)
			return fmt.Errorf("store: batch encodes to %d bytes, over the %d-byte frame limit", plen, seglog.MaxPayloadSize)
		}
	}
	lsn := s.lsn.Add(1)
	var frame []byte
	if encode {
		// Freshly allocated and never reused, so the replicator may keep it.
		frame = EncodeFrame(lsn, batch)
	}
	mySeq, err := s.commit(idxs[0], lsn, frame, frame, batch, repl)
	s.unlockShards(idxs)
	if err == nil {
		err = s.waitGroupSync(seg, mySeq)
	}
	if err != nil || repl == nil {
		return err
	}
	// Outside every lock: a synchronous leader may block here waiting for
	// follower acks. An error means farm-level durability is unknown — the
	// batch is applied locally, but the caller must treat the operation as
	// failed.
	return repl.r.WaitCommitted(lsn)
}

// lockShards write-locks the distinct shards ops touch in ascending order
// (deadlock-free) and returns their indexes, appended to idxs; the first
// is the segment the batch logs to. On a closed store it returns ErrClosed
// with nothing left locked.
func (s *Store) lockShards(ops []Op, idxs []int) ([]int, error) {
	// Insertion sort: batches are small and usually single-key.
	for _, op := range ops {
		d := s.shardIndex(op.Key)
		pos := sort.SearchInts(idxs, d)
		if pos < len(idxs) && idxs[pos] == d {
			continue
		}
		idxs = append(idxs, 0)
		copy(idxs[pos+1:], idxs[pos:])
		idxs[pos] = d
	}
	for _, i := range idxs {
		s.shards[i].mu.Lock()
	}
	if s.closed.Load() {
		s.unlockShards(idxs)
		return nil, ErrClosed
	}
	return idxs, nil
}

func (s *Store) unlockShards(idxs []int) {
	for j := len(idxs) - 1; j >= 0; j-- {
		s.shards[idxs[j]].mu.Unlock()
	}
}

// commit is the commit sequence Apply and ApplyReplicated share, run under
// the locks of every shard ops touches after the caller checked the
// segment's sticky error: log frame to segment idx (on-disk stores), hand
// hook to the replicator under the segment lock — so per-segment hook
// order is commit order — and apply ops to the maps. It returns the
// group-commit sequence number to wait on once unlocked (0 for none).
func (s *Store) commit(idx int, lsn uint64, frame, hook []byte, ops []Op, repl *replicatorBox) (mySeq uint64, err error) {
	seg := s.shards[idx]
	if s.dir != "" {
		if _, err := seg.walBuf.Write(frame); err != nil {
			return 0, seg.failStop("wal append", err)
		}
		if err := seg.walBuf.Flush(); err != nil {
			return 0, seg.failStop("wal flush", err)
		}
		if s.sync && !s.group {
			if err := seg.wal.Sync(); err != nil {
				return 0, seg.failStop("wal sync", err)
			}
			s.fsyncTotal.Inc()
			s.fsyncBatch.Observe(1)
		}
		seg.walLen += len(ops)
		if s.sync && s.group {
			mySeq = seg.seq.Add(1)
		}
	}
	if repl != nil {
		repl.r.OnCommit(lsn, idx, hook)
	}
	s.applyOps(ops)
	s.applyTotal.Inc()
	return mySeq, nil
}

// failStop poisons the shard after a WAL fault: the segment is in an
// unknown state, so every later write to it returns this error.
func (sh *shard) failStop(what string, err error) error {
	sh.walErr = fmt.Errorf("store: %s: %w", what, err)
	return sh.walErr
}

// waitGroupSync blocks until an fsync covers mySeq (0: nothing to wait
// for). The first committer to arrive while no fsync is running becomes
// the leader and syncs on behalf of everything flushed so far; the rest
// wait on the condition variable. Shard locks are NOT held here, so
// readers and later writers proceed while the disk works.
func (s *Store) waitGroupSync(sh *shard, mySeq uint64) error {
	if mySeq == 0 {
		return nil
	}
	sh.gmu.Lock()
	defer sh.gmu.Unlock()
	for sh.synced < mySeq {
		if sh.gerr != nil {
			return sh.gerr
		}
		if sh.syncing {
			sh.gcond.Wait()
			continue
		}
		sh.syncing = true
		sh.gmu.Unlock()
		if s.syncDelay != nil {
			s.syncDelay()
		}
		target := sh.seq.Load() // every batch ≤ target is flushed to the OS
		err := sh.wal.Sync()
		sh.gmu.Lock()
		sh.syncing = false
		if err != nil {
			// Fail-stop: a lost fsync means unknown durability, so
			// every subsequent committer sees the fault.
			sh.gerr = fmt.Errorf("store: wal sync: %w", err)
		} else {
			s.fsyncTotal.Inc()
			s.fsyncBatch.Observe(float64(target - sh.synced))
			sh.synced = target
		}
		sh.gcond.Broadcast()
	}
	return nil
}

// ErrReplGap is returned by ApplyReplicated when a frame skips ahead of
// the next expected LSN; the follower must resynchronise (segments or
// snapshot) instead of applying a log with a hole.
var ErrReplGap = errors.New("store: replicated frame leaves an LSN gap")

// ApplyReplicated applies one leader-shipped WAL frame. It is the follower
// half of log shipping: the frame's ops are applied under the involved
// shard locks and the frame bytes are appended verbatim to the local
// segment, so a follower's directory recovers exactly like a leader's.
//
// Delivery is idempotent and prefix-consistent: a frame at or below the
// local LSN is skipped (applied=false, nil error — a duplicate from a
// reconnect or a re-fed segment stream), the frame at LSN+1 is applied,
// and a frame beyond LSN+1 is rejected with ErrReplGap (leader logs are
// gapless, so a gap means this follower missed history and must catch up
// again). Works in follower mode — that guard only blocks local Apply.
func (s *Store) ApplyReplicated(frame []byte) (applied bool, err error) {
	if s.closed.Load() {
		return false, ErrClosed
	}
	lsn, ops, err := DecodeFrame(frame)
	if err != nil {
		return false, err
	}
	if len(ops) == 0 {
		return false, errors.New("store: replicated frame carries no ops")
	}
	if lsn <= s.lsn.Load() {
		return false, nil // duplicate delivery
	}
	var idxBuf [8]int
	idxs, err := s.lockShards(ops, idxBuf[:0])
	if err != nil {
		return false, err
	}
	seg, repl := s.shards[idxs[0]], s.replicator.Load()
	cur := s.lsn.Load()
	switch {
	case lsn <= cur:
		err = nil // a duplicate that raced past the unlocked check
	case lsn != cur+1:
		err = fmt.Errorf("%w: frame lsn %d, local lsn %d", ErrReplGap, lsn, cur)
	default:
		err = seg.walErr
	}
	if lsn <= cur || err != nil {
		s.unlockShards(idxs)
		return false, err
	}
	var hook []byte
	if repl != nil {
		// Chained replication: a follower that is itself a leader for
		// further replicas re-ships a copy of the frame (asynchronously —
		// the WaitCommitted gate is only consulted for local Apply).
		hook = append([]byte(nil), frame...)
	}
	mySeq, err := s.commit(idxs[0], lsn, frame, hook, ops, repl)
	if err == nil {
		s.lsn.Store(lsn)
	}
	s.unlockShards(idxs)
	if err == nil {
		err = s.waitGroupSync(seg, mySeq)
	}
	return err == nil, err
}

// ReplicationSnapshot captures a consistent cut of the whole store: the
// LSN and every key-value pair as of a moment when no Apply was in
// flight (all shard read locks held). Leaders use it to bootstrap a
// follower that is too far behind the segments.
func (s *Store) ReplicationSnapshot() (lsn uint64, kvs []KV, err error) {
	for _, sh := range s.shards {
		sh.mu.RLock()
	}
	defer func() {
		for j := len(s.shards) - 1; j >= 0; j-- {
			s.shards[j].mu.RUnlock()
		}
	}()
	if s.closed.Load() {
		return 0, nil, ErrClosed
	}
	lsn = s.lsn.Load()
	total := 0
	for _, sh := range s.shards {
		total += len(sh.data)
	}
	kvs = make([]KV, 0, total)
	for _, sh := range s.shards {
		for k, v := range sh.data {
			val := make([]byte, len(v))
			copy(val, v)
			kvs = append(kvs, KV{Key: k, Value: val})
		}
	}
	return lsn, kvs, nil
}

// ReplFrame is one committed WAL frame read back from a segment: the raw
// frame bytes plus its decoded LSN and originating shard.
type ReplFrame struct {
	LSN   uint64
	Shard int
	Frame []byte
}

// SegmentFrames returns every committed frame with LSN > sinceLSN still
// present in the WAL segments, sorted by LSN (nil for in-memory stores).
// Combined with SnapshotLSN it is the catch-up source for a lagging
// follower: segments hold exactly the frames above the compaction floor.
func (s *Store) SegmentFrames(sinceLSN uint64) ([]ReplFrame, error) {
	if s.dir == "" {
		return nil, nil
	}
	var out []ReplFrame
	for i, sh := range s.shards {
		sh.mu.RLock()
		if s.closed.Load() {
			sh.mu.RUnlock()
			return nil, ErrClosed
		}
		// Appends to this segment and compaction both need this shard's
		// write lock, so the file is frame-complete and stable here.
		data, err := readIfExists(s.walPath(i))
		sh.mu.RUnlock()
		if err != nil {
			return nil, err
		}
		valid, err := scanBatches(data, func(b walBatch, off, n int) {
			if b.lsn > sinceLSN {
				out = append(out, ReplFrame{LSN: b.lsn, Shard: i, Frame: data[off : off+n]})
			}
		})
		if err := requireIntact(fmt.Sprintf("segment %d", i), data, valid, err); err != nil {
			return nil, err
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].LSN < out[j].LSN })
	return out, nil
}

// InstallReplicaSnapshot replaces the entire store state with a leader's
// ReplicationSnapshot cut: state becomes exactly kvs, the LSN clock jumps
// to lsn, the snapshots are rewritten on disk and the segments truncated
// (so a follower restart recovers the installed state). Installing a
// snapshot older than local state is refused with ErrStaleSnapshot. The
// values are copied: a follower's are views of the transfer's chunks.
func (s *Store) InstallReplicaSnapshot(lsn uint64, kvs []KV) error {
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	defer func() {
		for j := len(s.shards) - 1; j >= 0; j-- {
			s.shards[j].mu.Unlock()
		}
	}()
	if s.closed.Load() {
		return ErrClosed
	}
	if lsn < s.lsn.Load() {
		return fmt.Errorf("%w: snapshot lsn %d, local lsn %d", ErrStaleSnapshot, lsn, s.lsn.Load())
	}
	for _, sh := range s.shards {
		if sh.walErr != nil {
			return sh.walErr
		}
		sh.reset(len(sh.data))
	}
	ops := make([]Op, len(kvs))
	for i, kv := range kvs {
		ops[i] = Op{Key: kv.Key, Value: append([]byte(nil), kv.Value...)}
	}
	s.applyOps(ops)
	s.lsn.Store(lsn)
	if err := s.compactLocked(); err != nil {
		return err
	}
	s.snapFloor.Store(lsn)
	return nil
}

// Scan returns all pairs whose key starts with prefix, sorted by key. The
// per-shard results are collected under each shard's read lock and merged
// (each shard's slice is sorted; keys never repeat across shards).
func (s *Store) Scan(prefix string) ([]KV, error) {
	parts := make([][]KV, 0, len(s.shards))
	total := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		if s.closed.Load() {
			sh.mu.RUnlock()
			return nil, ErrClosed
		}
		var part []KV
		for k, v := range sh.data {
			if strings.HasPrefix(k, prefix) {
				val := make([]byte, len(v))
				copy(val, v)
				part = append(part, KV{Key: k, Value: val})
			}
		}
		sh.mu.RUnlock()
		if len(part) > 0 {
			sort.Slice(part, func(i, j int) bool { return part[i].Key < part[j].Key })
			parts = append(parts, part)
			total += len(part)
		}
	}
	return mergeKVs(parts, total), nil
}

// mergeKVs k-way merges sorted per-shard runs into one sorted slice.
func mergeKVs(parts [][]KV, total int) []KV {
	if len(parts) == 1 {
		return parts[0]
	}
	var out []KV
	if total > 0 {
		out = make([]KV, 0, total)
	}
	idx := make([]int, len(parts))
	for {
		best := -1
		for i, p := range parts {
			if idx[i] < len(p) && (best < 0 || p[idx[i]].Key < parts[best][idx[best]].Key) {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, parts[best][idx[best]])
		idx[best]++
	}
}

// Count returns the number of keys with the given prefix (0 after Close).
func (s *Store) Count(prefix string) int {
	return s.sumShards(func(sh *shard) int {
		n := 0
		for k := range sh.data {
			if strings.HasPrefix(k, prefix) {
				n++
			}
		}
		return n
	})
}

// Len returns the total number of keys (0 after Close).
func (s *Store) Len() int {
	return s.sumShards(func(sh *shard) int { return len(sh.data) })
}

// WALRecords reports the number of WAL ops accumulated since the last
// compaction, summed across segments (0 for in-memory stores and after
// Close); exposed for compaction policies and tests.
func (s *Store) WALRecords() int {
	return s.sumShards(func(sh *shard) int { return sh.walLen })
}

// sumShards totals f over every shard, each under its read lock (0 after
// Close).
func (s *Store) sumShards(f func(sh *shard) int) int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		if s.closed.Load() {
			sh.mu.RUnlock()
			return 0
		}
		n += f(sh)
		sh.mu.RUnlock()
	}
	return n
}

// snapshotChunkBytes bounds the encoded payload of one snapshot frame, so
// a snapshot streams as modest records whatever its values' sizes.
const snapshotChunkBytes = 1 << 20

// Compact writes a fresh snapshot of every shard and truncates the WAL
// segments. Readers and writers are blocked for the duration.
func (s *Store) Compact() error {
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	defer func() {
		for j := len(s.shards) - 1; j >= 0; j-- {
			s.shards[j].mu.Unlock()
		}
	}()
	if s.closed.Load() {
		return ErrClosed
	}
	return s.compactLocked()
}

// compactLocked is Compact's body; the caller holds every shard lock (so
// s.lsn is stable — no Apply can be in flight).
func (s *Store) compactLocked() error {
	if s.dir == "" {
		return nil // in-memory: nothing to do
	}
	lsn := s.lsn.Load()
	for i, sh := range s.shards {
		if sh.walErr != nil {
			return sh.walErr
		}
		if err := s.writeSnapshot(i, sh, lsn); err != nil {
			return err
		}
	}
	// Make the renames themselves durable before touching the segments: a
	// crash here must never leave a truncated WAL next to a directory
	// entry that still points at the old snapshot.
	if err := s.syncDataDir(); err != nil {
		return fmt.Errorf("store: compact: sync dir: %w", err)
	}
	// Every snapshot is durable; now the segments can drop. A truncation
	// failure is fail-stop for its shard, exactly like an append or fsync
	// failure: the segment is in an unknown half-reset state, so later
	// Applies must not append to it.
	for i, sh := range s.shards {
		if s.compactFault != nil {
			if err := s.compactFault(i); err != nil {
				return sh.failStop("compact", err)
			}
		}
		if err := sh.wal.Truncate(0); err != nil {
			return sh.failStop("compact", err)
		}
		if _, err := sh.wal.Seek(0, 0); err != nil {
			return sh.failStop("compact", err)
		}
		sh.walBuf.Reset(sh.wal)
		sh.walLen = 0
	}
	s.snapFloor.Store(lsn)
	return nil
}

// writeSnapshot persists shard i's map as chunked snapshot frames via
// write-to-temp, fsync, rename. The first frame is a zero-op header
// carrying lsn — the position of the LSN clock at compaction — so a
// reopen after the segments are truncated resumes the clock instead of
// reissuing LSNs from 1.
func (s *Store) writeSnapshot(i int, sh *shard, lsn uint64) error {
	tmp := s.snapshotPath(i) + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	w := bufio.NewWriter(f)
	if _, err := w.Write(EncodeFrame(lsn, nil)); err != nil {
		f.Close()
		return fmt.Errorf("store: compact: %w", err)
	}
	ops := make([]Op, 0, len(sh.data))
	for k, v := range sh.data {
		ops = append(ops, Op{Key: k, Value: v})
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].Key < ops[j].Key })
	for _, chunk := range chunkOps(ops, snapshotChunkBytes) {
		if _, err := w.Write(EncodeFrame(0, chunk)); err != nil {
			f.Close()
			return fmt.Errorf("store: compact: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := os.Rename(tmp, s.snapshotPath(i)); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	return nil
}

// closeFiles closes any WAL files opened so far (Open error paths).
func (s *Store) closeFiles() {
	for _, sh := range s.shards {
		if sh.wal != nil {
			sh.wal.Close()
		}
	}
}

// Close flushes, fsyncs, and closes every WAL segment. Further operations
// return ErrClosed (or zero for the counting reads). In-flight group
// commits are satisfied by Close's final fsync.
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	var firstErr error
	for _, sh := range s.shards {
		sh.mu.Lock()
		if sh.wal != nil {
			if err := sh.walBuf.Flush(); err != nil && firstErr == nil {
				firstErr = err
			}
			sh.gmu.Lock()
			for sh.syncing {
				sh.gcond.Wait()
			}
			target := sh.seq.Load()
			if err := sh.wal.Sync(); err != nil && firstErr == nil {
				firstErr = err
			}
			if err := sh.wal.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
			sh.synced = target
			if sh.gerr == nil {
				sh.gerr = ErrClosed
			}
			sh.gcond.Broadcast()
			sh.gmu.Unlock()
		}
		sh.data, sh.decoded = nil, nil
		sh.mu.Unlock()
	}
	return firstErr
}

package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"openmfa/internal/obs"
	"openmfa/internal/store"
)

// FollowerOptions configures StartFollower.
type FollowerOptions struct {
	// Addr is the leader's replication address.
	Addr string
	// Dial, when set, replaces net.DialTimeout (faultnet injection).
	Dial func(network, addr string) (net.Conn, error)
	// Obs receives the repl_* metrics; Logger the session log.
	Obs    *obs.Registry
	Logger *obs.Logger
}

const (
	// dialTimeout bounds each connection attempt.
	dialTimeout = 2 * time.Second
	// reconnectMin and reconnectMax bound the exponential backoff
	// between attempts.
	reconnectMin = 50 * time.Millisecond
	reconnectMax = time.Second
	// readTimeout is the per-read deadline; the leader heartbeats every
	// heartbeatEvery, so a read past this means the link is dead.
	readTimeout = 5 * time.Second
)

// Follower replicates a store from a leader: it puts the store into
// follower mode (local Apply refused), then dials, hands the leader its
// last LSN, applies whatever the leader decides it needs — snapshot,
// segment replay, live frames — and acknowledges applied LSNs so the
// leader's MinSync gate can count it. It reconnects with backoff until
// Stop.
type Follower struct {
	st     *store.Store
	opts   FollowerOptions
	logger *obs.Logger

	done chan struct{}
	wg   sync.WaitGroup

	mu   sync.Mutex
	conn net.Conn // current connection, closed by Stop

	framesApplied  *obs.Counter
	framesDup      *obs.Counter
	reconnects     *obs.Counter
	snapsInstalled *obs.Counter
	lagG           *obs.Gauge
	epochG         *obs.Gauge
	catchupG       *obs.Gauge
}

// StartFollower switches the store into follower mode and starts the
// replication loop. The store must not be serving local writes; reads
// stay available throughout (a standby otpd can answer health checks).
func StartFollower(st *store.Store, opts FollowerOptions) (*Follower, error) {
	if opts.Addr == "" {
		return nil, errors.New("repl: follower needs a leader address")
	}
	f := &Follower{
		st:     st,
		opts:   opts,
		logger: opts.Logger,
		done:   make(chan struct{}),
	}
	if opts.Obs != nil {
		f.framesApplied = opts.Obs.Counter("repl_frames_applied_total")
		f.framesDup = opts.Obs.Counter("repl_frames_duplicate_total")
		f.reconnects = opts.Obs.Counter("repl_reconnects_total")
		f.snapsInstalled = opts.Obs.Counter("repl_snapshots_installed_total")
		f.lagG = opts.Obs.Gauge("repl_lag_lsns")
		f.epochG = opts.Obs.Gauge("repl_epoch")
		f.catchupG = opts.Obs.Gauge("repl_catchup_seconds")
	}
	st.SetFollowerMode(true)
	f.epochG.Set(float64(st.Epoch()))
	f.wg.Add(1)
	go f.run()
	return f, nil
}

// Stop ends replication and waits for the loop to exit. The store is
// left in follower mode: promotion is StartLeader on the same store
// (which bumps the epoch and re-enables local Apply), so there is no
// window where un-fenced local writes could slip in.
func (f *Follower) Stop() {
	f.mu.Lock()
	select {
	case <-f.done:
		f.mu.Unlock()
		return
	default:
	}
	close(f.done)
	if f.conn != nil {
		f.conn.Close()
	}
	f.mu.Unlock()
	f.wg.Wait()
}

func (f *Follower) run() {
	defer f.wg.Done()
	backoff := reconnectMin
	for {
		select {
		case <-f.done:
			return
		default:
		}
		conn, err := f.dial()
		if err == nil {
			err = f.serve(conn)
			conn.Close()
		}
		select {
		case <-f.done:
			return
		default:
		}
		if err != nil && f.logger != nil {
			f.logger.Warn("repl follower disconnected", "err", err.Error())
		}
		f.reconnects.Inc()
		select {
		case <-f.done:
			return
		case <-time.After(backoff):
		}
		backoff *= 2
		if backoff > reconnectMax {
			backoff = reconnectMax
		}
	}
}

func (f *Follower) dial() (net.Conn, error) {
	dial := f.opts.Dial
	if dial == nil {
		dial = func(network, addr string) (net.Conn, error) {
			return net.DialTimeout(network, addr, dialTimeout)
		}
	}
	conn, err := dial("tcp", f.opts.Addr)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	select {
	case <-f.done:
		f.mu.Unlock()
		conn.Close()
		return nil, net.ErrClosed
	default:
	}
	f.conn = conn
	f.mu.Unlock()
	return conn, nil
}

// serve runs one connection: handshake with fencing, then apply the
// leader's stream until it breaks.
func (f *Follower) serve(conn net.Conn) error {
	bc := newBufConn(conn)
	conn.SetWriteDeadline(time.Now().Add(readTimeout))
	if err := writeHandshake(bc.bw, handshake{epoch: f.st.Epoch(), lsn: f.st.LSN()}); err != nil {
		return err
	}
	if err := bc.bw.Flush(); err != nil {
		return err
	}
	conn.SetReadDeadline(time.Now().Add(readTimeout))
	accept, err := readHandshake(bc.br)
	if err != nil {
		return err
	}
	if accept.epoch < f.st.Epoch() {
		// This "leader" is from a fenced-out epoch (a partitioned
		// ex-leader still listening): refuse its frames, keep retrying —
		// operators repoint the farm, not the protocol.
		return fmt.Errorf("%w: leader epoch %d, local %d", errStaleEpoch, accept.epoch, f.st.Epoch())
	}
	if err := f.st.SetEpoch(accept.epoch); err != nil {
		return err
	}
	f.epochG.Set(float64(accept.epoch))

	leaderLSN := accept.lsn
	caughtUp := f.st.LSN() >= leaderLSN
	start := time.Now()
	if caughtUp {
		f.catchupG.Set(0)
	}
	f.lagG.Set(lagOf(leaderLSN, f.st.LSN()))

	var snap *snapshotAssembly
	for {
		conn.SetReadDeadline(time.Now().Add(readTimeout))
		typ, _, payload, err := readMsg(bc.br)
		if err != nil {
			return err
		}
		ack := false
		switch typ {
		case msgFrame:
			applied, err := f.st.ApplyReplicated(payload)
			if err != nil {
				// A gap means this follower missed history (ring raced
				// segments on the leader): drop the link and resync from
				// our LSN on reconnect. Anything else is fatal for the
				// connection too.
				return err
			}
			if applied {
				f.framesApplied.Inc()
			} else {
				f.framesDup.Inc()
			}
			ack = true
		case msgSnapBegin:
			if len(payload) != 16 {
				return fmt.Errorf("repl: snapshot begin payload %d bytes", len(payload))
			}
			snap = &snapshotAssembly{
				lsn: binary.LittleEndian.Uint64(payload[:8]),
				kvs: make([]store.KV, 0, int(binary.LittleEndian.Uint64(payload[8:]))),
			}
		case msgSnapKV:
			if snap == nil {
				return errors.New("repl: snapshot kv outside snapshot")
			}
			if err := snap.addChunk(payload); err != nil {
				return err
			}
		case msgSnapEnd:
			if snap == nil {
				return errors.New("repl: snapshot end outside snapshot")
			}
			endLSN, err := readU64(payload)
			if err != nil {
				return err
			}
			if endLSN != snap.lsn {
				return fmt.Errorf("repl: snapshot end lsn %d != begin %d", endLSN, snap.lsn)
			}
			if err := f.st.InstallReplicaSnapshot(snap.lsn, snap.kvs); err != nil {
				if errors.Is(err, store.ErrStaleSnapshot) {
					// We were already past it (duplicate catch-up after a
					// reconnect race) — nothing lost, keep streaming.
					snap = nil
					ack = true
					break
				}
				return err
			}
			f.snapsInstalled.Inc()
			snap = nil
			ack = true
		case msgHeartbeat:
			if leaderLSN, err = readU64(payload); err != nil {
				return err
			}
			ack = true
		default:
			return fmt.Errorf("repl: unexpected message type %d", typ)
		}
		if ack {
			lsn := f.st.LSN()
			f.lagG.Set(lagOf(leaderLSN, lsn))
			if !caughtUp && lsn >= leaderLSN {
				caughtUp = true
				f.catchupG.Set(time.Since(start).Seconds())
			}
			conn.SetWriteDeadline(time.Now().Add(readTimeout))
			if err := writeMsg(bc.bw, msgAck, 0, u64payload(lsn)); err != nil {
				return err
			}
			if err := bc.bw.Flush(); err != nil {
				return err
			}
		}
	}
}

func lagOf(leaderLSN, localLSN uint64) float64 {
	if localLSN >= leaderLSN {
		return 0
	}
	return float64(leaderLSN - localLSN)
}

// snapshotAssembly accumulates one in-flight snapshot transfer.
type snapshotAssembly struct {
	lsn uint64
	kvs []store.KV
}

func (a *snapshotAssembly) addChunk(p []byte) error {
	if len(p) < 4 {
		return errors.New("repl: short snapshot chunk")
	}
	n := binary.LittleEndian.Uint32(p[:4])
	p = p[4:]
	for i := uint32(0); i < n; i++ {
		k, rest, err := takeBytes(p)
		if err != nil {
			return err
		}
		v, rest, err := takeBytes(rest)
		if err != nil {
			return err
		}
		a.kvs = append(a.kvs, store.KV{Key: string(k), Value: v})
		p = rest
	}
	if len(p) != 0 {
		return fmt.Errorf("repl: %d trailing bytes in snapshot chunk", len(p))
	}
	return nil
}

func takeBytes(p []byte) (val, rest []byte, err error) {
	if len(p) < 4 {
		return nil, nil, errors.New("repl: truncated snapshot entry")
	}
	n := binary.LittleEndian.Uint32(p[:4])
	if uint32(len(p)-4) < n {
		return nil, nil, errors.New("repl: truncated snapshot entry")
	}
	out := make([]byte, n)
	copy(out, p[4:4+n])
	return out, p[4+n:], nil
}

// Package faultnet is a deterministic network fault-injection layer for
// chaos-testing the auth stack. The paper's central operational claim is
// resiliency — "API calls communicate with RADIUS servers in a round-robin
// fashion to provide load balancing and resiliency if specific RADIUS
// servers are unavailable" (§3.4) — and its one reported production incident
// was a degraded network (§5: SMS codes delivered "in an expired state"
// after carrier retries). This package makes those conditions reproducible:
// it wraps net.Conn, net.PacketConn, and net.Listener with faults drawn
// from a seeded RNG, so the same seed replays the same misbehaviour.
//
// # Fault model
//
// Datagram transports (UDP, the RADIUS legs) get the classic loss model:
// per-datagram drop, duplication, hold-one reordering, single-byte
// corruption, and per-peer partitions that silently blackhole both
// directions — exactly what a NAS sees when a farm member dies without
// closing anything.
//
// Stream transports (TCP: the sshd wire, the directory protocol) cannot
// lose bytes without breaking TCP's contract, so they get the stream
// failure modes instead: dial failures, injected connection resets,
// per-write delay, and byte corruption (which exercises the parsers'
// fail-closed paths).
//
// Delays sleep on an injectable clock.Sleeper, so chaos tests built on
// clock.Sim run in simulated time; the zero value uses the real clock.
// Every injected fault increments faultnet_injected_total{kind=...} when a
// registry is attached.
package faultnet

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"time"

	"openmfa/internal/clock"
	"openmfa/internal/obs"
)

// Injected fault errors. They are wrapped in *net.OpError so callers'
// net.Error handling sees them the way it would see real network failures.
var (
	// ErrDialFault is returned by Dial when a dial failure is injected.
	ErrDialFault = errors.New("faultnet: injected dial failure")
	// ErrReset is returned by stream reads/writes when a connection reset
	// is injected; the underlying connection is closed.
	ErrReset = errors.New("faultnet: injected connection reset")
	// ErrPartitioned is returned by stream operations against a
	// partitioned peer. Datagram operations never return it: partitions
	// blackhole datagrams silently, like real ones.
	ErrPartitioned = errors.New("faultnet: peer partitioned")
)

// Config sets the fault rates. All rates are probabilities in [0, 1];
// zero-value Config injects nothing and adds no delay.
type Config struct {
	// Seed makes the fault sequence reproducible.
	Seed int64
	// Clock paces injected delays; nil means the real clock. Chaos tests
	// built on clock.Sim run injected latency in simulated time.
	Clock clock.Sleeper
	// Obs, when set, counts injected faults in
	// faultnet_injected_total{kind=...}.
	Obs *obs.Registry

	// Datagram faults (applied per datagram on UDP conns).
	DropRate    float64 // silently discard the datagram
	DupRate     float64 // send it twice
	ReorderRate float64 // hold it back until the next datagram is sent
	CorruptRate float64 // flip one byte (also applied per stream write)

	// Stream faults (applied to TCP conns).
	DialFailRate float64 // Dial returns ErrDialFault
	ResetRate    float64 // per-write probability of an injected reset

	// Delay and Jitter add base + uniform extra latency to every send
	// (datagram or stream write). Dials are never delayed: infrastructure
	// setup dials synchronously, and parking it on a simulated clock that
	// nothing is advancing yet would deadlock.
	Delay  time.Duration
	Jitter time.Duration
}

// Network owns the RNG, the partition set, and the counters. It is safe
// for concurrent use; the RNG is mutex-guarded so the draw sequence is a
// deterministic function of the seed and the interleaving of operations.
type Network struct {
	cfg Config
	clk clock.Sleeper

	mu    sync.Mutex
	rng   *rand.Rand
	parts map[string]bool

	cDrop, cDup, cReorder, cCorrupt  *obs.Counter
	cDelay, cPartition, cDial, cRset *obs.Counter
}

// New builds a Network from cfg.
func New(cfg Config) *Network {
	clk := cfg.Clock
	if clk == nil {
		clk = clock.Real{}
	}
	n := &Network{
		cfg:   cfg,
		clk:   clk,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		parts: make(map[string]bool),
	}
	if cfg.Obs != nil {
		c := func(kind string) *obs.Counter {
			return cfg.Obs.Counter("faultnet_injected_total", "kind", kind)
		}
		n.cDrop, n.cDup, n.cReorder, n.cCorrupt = c("drop"), c("dup"), c("reorder"), c("corrupt")
		n.cDelay, n.cPartition, n.cDial, n.cRset = c("delay"), c("partition"), c("dial_fail"), c("reset")
	}
	return n
}

// Partition blackholes all traffic to and from the peer address
// ("host:port" as the wrapped side sees it) until Heal.
func (n *Network) Partition(addr string) {
	n.mu.Lock()
	n.parts[addr] = true
	n.mu.Unlock()
}

// Heal removes a partition.
func (n *Network) Heal(addr string) {
	n.mu.Lock()
	delete(n.parts, addr)
	n.mu.Unlock()
}

// Partitioned reports whether addr is currently partitioned.
func (n *Network) Partitioned(addr string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.parts[addr]
}

// roll draws once from the seeded RNG.
func (n *Network) roll(rate float64) bool {
	if rate <= 0 {
		return false
	}
	n.mu.Lock()
	hit := n.rng.Float64() < rate
	n.mu.Unlock()
	return hit
}

// sleepDelay blocks for Delay plus uniform Jitter on the injected clock.
func (n *Network) sleepDelay() {
	d := n.cfg.Delay
	if n.cfg.Jitter > 0 {
		n.mu.Lock()
		d += time.Duration(n.rng.Int63n(int64(n.cfg.Jitter)))
		n.mu.Unlock()
	}
	if d <= 0 {
		return
	}
	n.cDelay.Inc()
	n.clk.Sleep(d)
}

// corrupt returns a copy of b with one byte flipped (position and mask
// drawn from the seeded RNG). Callers may reuse b, so it is never mutated.
func (n *Network) corrupt(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	if len(out) > 0 {
		n.mu.Lock()
		i := n.rng.Intn(len(out))
		mask := byte(1 + n.rng.Intn(255))
		n.mu.Unlock()
		out[i] ^= mask
	}
	n.cCorrupt.Inc()
	return out
}

// Dial opens a connection through the fault layer. Dials to partitioned
// peers and injected dial failures error; surviving connections are
// wrapped so per-operation faults apply. Datagram networks ("udp...")
// get the datagram fault model, everything else the stream model.
func (n *Network) Dial(network, addr string) (net.Conn, error) {
	if n.Partitioned(addr) {
		n.cPartition.Inc()
		return nil, &net.OpError{Op: "dial", Net: network, Err: ErrPartitioned}
	}
	if n.roll(n.cfg.DialFailRate) {
		n.cDial.Inc()
		return nil, &net.OpError{Op: "dial", Net: network, Err: ErrDialFault}
	}
	c, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return n.wrapConn(c, addr, isDatagram(network)), nil
}

// Listen binds a stream listener whose accepted connections pass through
// the fault layer (peer keyed by remote address).
func (n *Network) Listen(network, addr string) (net.Listener, error) {
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, err
	}
	return &faultListener{Listener: ln, n: n}, nil
}

// ListenPacket binds a packet listener whose datagrams pass through the
// fault layer in both directions.
func (n *Network) ListenPacket(network, addr string) (net.PacketConn, error) {
	pc, err := net.ListenPacket(network, addr)
	if err != nil {
		return nil, err
	}
	return n.WrapPacketConn(pc), nil
}

// WrapConn interposes the fault layer on an existing connection. peer is
// the partition key (normally c.RemoteAddr().String()).
func (n *Network) WrapConn(c net.Conn, peer string) net.Conn {
	return n.wrapConn(c, peer, isDatagram(c.RemoteAddr().Network()))
}

// WrapPacketConn interposes the datagram fault model on an existing
// packet connection.
func (n *Network) WrapPacketConn(pc net.PacketConn) net.PacketConn {
	return &faultPacketConn{PacketConn: pc, n: n}
}

func (n *Network) wrapConn(c net.Conn, peer string, datagram bool) net.Conn {
	return &faultConn{Conn: c, n: n, peer: peer, datagram: datagram}
}

func isDatagram(network string) bool {
	switch network {
	case "udp", "udp4", "udp6", "unixgram", "ip", "ip4", "ip6":
		return true
	}
	return false
}

// faultListener wraps accepted connections.
type faultListener struct {
	net.Listener
	n *Network
}

func (l *faultListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.n.wrapConn(c, c.RemoteAddr().String(), false), nil
}

// faultConn applies per-operation faults to a single connection. For
// datagram conns each Write/Read is one datagram; for stream conns the
// stream fault model applies.
type faultConn struct {
	net.Conn
	n        *Network
	peer     string
	datagram bool

	mu    sync.Mutex
	stash []byte // reorder hold-back (datagram only)
}

func (c *faultConn) Write(b []byte) (int, error) {
	if c.datagram {
		return c.writeDatagram(b)
	}
	if c.n.Partitioned(c.peer) {
		c.n.cPartition.Inc()
		return 0, &net.OpError{Op: "write", Net: "tcp", Err: ErrPartitioned}
	}
	if c.n.roll(c.n.cfg.ResetRate) {
		c.n.cRset.Inc()
		c.Conn.Close()
		return 0, &net.OpError{Op: "write", Net: "tcp", Err: ErrReset}
	}
	c.n.sleepDelay()
	if c.n.roll(c.n.cfg.CorruptRate) {
		b = c.n.corrupt(b)
	}
	return c.Conn.Write(b)
}

func (c *faultConn) writeDatagram(b []byte) (int, error) {
	// Silent-loss cases report success, like a real lossy network: the
	// datagram left the host; nobody will ever know what became of it.
	if c.n.Partitioned(c.peer) {
		c.n.cPartition.Inc()
		return len(b), nil
	}
	if c.n.roll(c.n.cfg.DropRate) {
		c.n.cDrop.Inc()
		return len(b), nil
	}
	out := b
	if c.n.roll(c.n.cfg.CorruptRate) {
		out = c.n.corrupt(out)
	}
	if c.n.roll(c.n.cfg.ReorderRate) {
		// Hold this datagram until the next one is sent.
		held := make([]byte, len(out))
		copy(held, out)
		c.mu.Lock()
		prev := c.stash
		c.stash = held
		c.mu.Unlock()
		c.n.cReorder.Inc()
		if prev != nil {
			c.Conn.Write(prev)
		}
		return len(b), nil
	}
	c.n.sleepDelay()
	if _, err := c.Conn.Write(out); err != nil {
		return 0, err
	}
	if c.n.roll(c.n.cfg.DupRate) {
		c.n.cDup.Inc()
		c.Conn.Write(out)
	}
	c.mu.Lock()
	prev := c.stash
	c.stash = nil
	c.mu.Unlock()
	if prev != nil {
		c.Conn.Write(prev) // release the held datagram out of order
	}
	return len(b), nil
}

func (c *faultConn) Read(b []byte) (int, error) {
	for {
		nr, err := c.Conn.Read(b)
		if err != nil {
			return nr, err
		}
		if c.n.Partitioned(c.peer) {
			c.n.cPartition.Inc()
			if c.datagram {
				continue // swallow datagrams from a partitioned peer
			}
			return 0, &net.OpError{Op: "read", Net: "tcp", Err: ErrPartitioned}
		}
		return nr, nil
	}
}

// faultPacketConn applies the datagram fault model to an unconnected
// packet socket (the server side of the RADIUS farm).
type faultPacketConn struct {
	net.PacketConn
	n *Network

	mu    sync.Mutex
	stash []byte
	sAddr net.Addr
}

func (p *faultPacketConn) WriteTo(b []byte, addr net.Addr) (int, error) {
	peer := addr.String()
	if p.n.Partitioned(peer) {
		p.n.cPartition.Inc()
		return len(b), nil
	}
	if p.n.roll(p.n.cfg.DropRate) {
		p.n.cDrop.Inc()
		return len(b), nil
	}
	out := b
	if p.n.roll(p.n.cfg.CorruptRate) {
		out = p.n.corrupt(out)
	}
	if p.n.roll(p.n.cfg.ReorderRate) {
		held := make([]byte, len(out))
		copy(held, out)
		p.mu.Lock()
		prevB, prevA := p.stash, p.sAddr
		p.stash, p.sAddr = held, addr
		p.mu.Unlock()
		p.n.cReorder.Inc()
		if prevB != nil {
			p.PacketConn.WriteTo(prevB, prevA)
		}
		return len(b), nil
	}
	p.n.sleepDelay()
	if _, err := p.PacketConn.WriteTo(out, addr); err != nil {
		return 0, err
	}
	if p.n.roll(p.n.cfg.DupRate) {
		p.n.cDup.Inc()
		p.PacketConn.WriteTo(out, addr)
	}
	p.mu.Lock()
	prevB, prevA := p.stash, p.sAddr
	p.stash, p.sAddr = nil, nil
	p.mu.Unlock()
	if prevB != nil {
		p.PacketConn.WriteTo(prevB, prevA)
	}
	return len(b), nil
}

func (p *faultPacketConn) ReadFrom(b []byte) (int, net.Addr, error) {
	for {
		nr, src, err := p.PacketConn.ReadFrom(b)
		if err != nil {
			return nr, src, err
		}
		if src != nil && p.n.Partitioned(src.String()) {
			p.n.cPartition.Inc()
			continue // blackhole inbound datagrams from partitioned peers
		}
		return nr, src, nil
	}
}

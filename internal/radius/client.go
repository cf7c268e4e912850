package radius

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"openmfa/internal/clock"
	"openmfa/internal/obs"
)

// Client exchange errors.
var (
	ErrTimeout = errors.New("radius: timeout waiting for response")
	ErrAllDown = errors.New("radius: all servers unavailable")
	ErrConfig  = errors.New("radius: invalid client configuration")
)

// NoRetry disables retransmission entirely: the client sends the request
// once and waits one timeout. Retries: 0 keeps the default budget.
const NoRetry = -1

// DefaultBackoff is the base pause before retransmitting after an attempt
// that failed early — a dead server answers ECONNREFUSED immediately, and
// without a pause the whole retry budget burns in microseconds. The pause
// doubles per attempt (capped) with ±50% jitter so a farm of clients
// retrying a rebooted server does not synchronise. Attempts that consumed
// their full Timeout are already paced and never sleep.
const DefaultBackoff = 50 * time.Millisecond

// maxBackoff caps exponential growth so a long retry budget against a dead
// server does not sleep for minutes.
const maxBackoff = 2 * time.Second

// maxIdleConns bounds the connected sockets a Client keeps between
// exchanges; a burst wider than this dials the difference and closes it
// afterwards.
const maxIdleConns = 8

// Client sends Access-Requests to a single RADIUS server with
// retransmission, and verifies response authenticators. It keeps the
// connected UDP sockets of exchanges that ended in a verified reply and
// reuses them, so a steady stream of exchanges dials once; Close releases
// them.
type Client struct {
	// Addr is the server's UDP address ("host:port").
	Addr string
	// Secret is the shared secret.
	Secret []byte
	// Timeout is the per-attempt wait for a verified response. Zero means
	// the 1-second default; negative is rejected with ErrConfig.
	Timeout time.Duration
	// Retries is the number of retransmissions after the first attempt.
	// Zero means the default of 2 (three attempts total); NoRetry (-1)
	// means a single attempt with no retransmission; anything below
	// NoRetry is rejected with ErrConfig.
	Retries int
	// Clock paces backoff sleeps; nil means the real clock.
	Clock clock.Sleeper
	// Dial opens a UDP socket to Addr; nil means net.Dial. Chaos tests
	// inject a faultnet dialer here. Set it before the first exchange:
	// sockets already kept were dialled with the old hook (Pool.SetDial
	// drains them).
	Dial func(network, addr string) (net.Conn, error)
	// Obs, when set, counts silently discarded datagrams in
	// radius_client_discards_total{reason=...}.
	Obs *obs.Registry

	idCounter uint32

	mu   sync.Mutex
	idle []net.Conn // sockets whose last exchange ended in a verified reply
	gen  uint64     // bumped by Close; a socket from an older generation is not kept
}

func (c *Client) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return time.Second
}

func (c *Client) retries() int {
	switch {
	case c.Retries > 0:
		return c.Retries
	case c.Retries == NoRetry:
		return 0
	}
	return 2
}

// validate rejects configurations whose zero-value defaulting would
// otherwise mask a caller bug (Retries: -3 used to mean "never send and
// report ErrTimeout").
func (c *Client) validate() error {
	if len(c.Secret) == 0 {
		// See ErrEmptySecret: password hiding and response verification
		// both degenerate without a real shared secret.
		return fmt.Errorf("%w: %v", ErrConfig, ErrEmptySecret)
	}
	if c.Timeout < 0 {
		return fmt.Errorf("%w: negative Timeout %v", ErrConfig, c.Timeout)
	}
	if c.Retries < NoRetry {
		return fmt.Errorf("%w: Retries %d below NoRetry (-1)", ErrConfig, c.Retries)
	}
	return nil
}

func (c *Client) sleeper() clock.Sleeper {
	if c.Clock != nil {
		return c.Clock
	}
	return clock.Real{}
}

// backoffFor returns the pause before retransmission number attempt+1.
func backoffFor(attempt int) time.Duration {
	d := DefaultBackoff << uint(attempt)
	if d > maxBackoff || d <= 0 {
		d = maxBackoff
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// discard counts a datagram dropped without aborting the exchange.
func (c *Client) discard(reason string) {
	if c.Obs != nil {
		c.Obs.Counter("radius_client_discards_total", "reason", reason).Inc()
	}
}

// nextID allocates request identifiers round-robin per client.
func (c *Client) nextID() byte {
	return byte(atomic.AddUint32(&c.idCounter, 1))
}

// Exchange sends req and waits for a verified response. The request's
// Identifier is assigned automatically and its Message-Authenticator slot
// is filled. The same wire bytes are retransmitted on timeout, from the
// same socket, so the server's duplicate cache works as intended. The
// returned reply owns a copy of its datagram's bytes.
//
// Responses that fail to decode, carry the wrong Identifier, fail
// authenticator verification, or carry no valid Message-Authenticator are
// silently discarded and the client keeps waiting out the attempt
// deadline, per RFC 2865 §3 — a forged datagram must not abort an
// exchange the genuine server is about to answer. The same checks discard
// a late or duplicated reply to an earlier exchange that lands on a
// reused socket: its Identifier differs, or its Response Authenticator is
// bound to another request's random authenticator.
func (c *Client) Exchange(req *Packet) (resp *Packet, err error) {
	err = c.exchange(req, func(r *Packet) { resp = r.clone() })
	return resp, err
}

// exchange is Exchange with the verified reply read in place, as in
// Pool.ExchangeRead.
func (c *Client) exchange(req *Packet, read func(resp *Packet)) error {
	if err := c.validate(); err != nil {
		return err
	}
	wire, err := c.seal(req)
	if err != nil {
		return err
	}
	conn, gen, err := c.take()
	if err != nil {
		return fmt.Errorf("radius: %w", err)
	}
	sockErr, err := c.roundTrip(conn, req, wire, read)
	if err != nil || sockErr {
		// A socket that saw an error or ended in a timeout may hold a
		// pending ICMP error or a dead peer: never reuse it.
		conn.Close()
	} else {
		c.keep(conn, gen)
	}
	return err
}

// seal assigns req's Identifier, fills its Message-Authenticator and
// returns its wire image, which views req's buffer.
func (c *Client) seal(req *Packet) ([]byte, error) {
	req.Identifier = c.nextID()
	if err := AddMessageAuthenticator(req, c.Secret); err != nil {
		return nil, err
	}
	return req.image(), nil
}

// take returns an idle socket, or dials a new one, with the generation it
// belongs to.
func (c *Client) take() (net.Conn, uint64, error) {
	c.mu.Lock()
	gen := c.gen
	if n := len(c.idle); n > 0 {
		conn := c.idle[n-1]
		c.idle[n-1] = nil
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return conn, gen, nil
	}
	c.mu.Unlock()
	dial := c.Dial
	if dial == nil {
		dial = net.Dial
	}
	conn, err := dial("udp", c.Addr)
	return conn, gen, err
}

// keep returns a socket to the idle list after a verified reply, or closes
// it when the list is full or Close ran since the socket was taken.
func (c *Client) keep(conn net.Conn, gen uint64) {
	c.mu.Lock()
	if gen == c.gen && len(c.idle) < maxIdleConns {
		c.idle = append(c.idle, conn)
		conn = nil
	}
	c.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// Close closes the idle sockets. An exchange in flight closes its own
// socket when it ends; the Client stays usable and dials afresh.
func (c *Client) Close() error {
	c.mu.Lock()
	idle := c.idle
	c.idle = nil
	c.gen++
	c.mu.Unlock()
	for _, conn := range idle {
		conn.Close()
	}
	return nil
}

// roundTrip runs the attempt loop on one socket. The bool reports a write
// or read error other than a timeout, even when a later attempt succeeded.
// Each datagram is read and checked in pooled scratch, where read sees the
// verified reply.
func (c *Client) roundTrip(conn net.Conn, req *Packet, wire []byte, read func(resp *Packet)) (bool, error) {
	scratch := getPacketBuf()
	defer packetBufs.Put(scratch)
	resp := &scratch.pkt
	attempts := 1 + c.retries()
	var lastErr error
	for a := 0; a < attempts; a++ {
		earlyFail := false
		if _, err := conn.Write(wire); err != nil {
			// Dead-server fast failure (ECONNREFUSED): pace the retry
			// instead of hot-looping through the budget.
			lastErr = fmt.Errorf("radius: %w", err)
			earlyFail = true
		} else {
			// Deadlines are wall-clock by contract of net.Conn, so this
			// uses time.Now even when backoff runs on an injected clock.
			deadline := time.Now().Add(c.timeout())
			for {
				if err := conn.SetReadDeadline(deadline); err != nil {
					return true, err
				}
				n, err := conn.Read(scratch.buf[:])
				if err != nil {
					if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
						earlyFail = true
						lastErr = fmt.Errorf("radius: %w", err)
					}
					break // retransmit
				}
				if reason := c.check(resp, scratch.buf[:n], req); reason != "" {
					c.discard(reason)
					continue
				}
				read(resp)
				return lastErr != nil, nil
			}
		}
		if earlyFail && a < attempts-1 {
			c.sleeper().Sleep(backoffFor(a))
		}
	}
	if lastErr != nil {
		return true, lastErr
	}
	return false, ErrTimeout
}

// check decodes datagram into resp and verifies it as the reply to req.
// It returns "" for a verified reply, or the reason to discard it. A
// reply's Message-Authenticator is computed with the request's
// authenticator in the header field.
func (c *Client) check(resp *Packet, datagram []byte, req *Packet) string {
	switch {
	case resp.DecodeFrom(datagram) != nil:
		return "malformed"
	case resp.Identifier != req.Identifier:
		return "id_mismatch"
	case !VerifyResponse(resp, req.Authenticator, c.Secret):
		return "bad_authenticator"
	}
	if _, ok := resp.Get(AttrMessageAuthenticator); !ok {
		return "missing_message_authenticator"
	}
	if !verifyMessageAuthenticator(resp, &req.Authenticator, c.Secret) {
		return "bad_message_authenticator"
	}
	return ""
}

// poolCooldown is how long a Pool skips a failed server before retrying it.
const poolCooldown = 30 * time.Second

// Pool is a round-robin failover client over several RADIUS servers: "API
// calls communicate with RADIUS servers in a round-robin fashion to provide
// load balancing and resiliency if specific RADIUS servers are unavailable"
// (§3.4).
type Pool struct {
	// Obs, when set, receives per-exchange outcome counters, latency
	// histograms, and a failover counter. Use SetObs to also wire the
	// member clients' discard counters.
	Obs *obs.Registry
	// Clock supplies the time for cooldown bookkeeping; nil means the
	// real clock.
	Clock clock.Clock

	secret  []byte
	mu      sync.Mutex
	clients []*Client
	downTil []time.Time
	next    int
}

// NewPool builds a pool of clients sharing one secret. Each address gets
// the provided per-attempt timeout and retry budget (Client sentinel
// semantics: retries 0 means the default, NoRetry means single-shot).
func NewPool(addrs []string, secret []byte, timeout time.Duration, retries int) *Pool {
	p := &Pool{secret: append([]byte(nil), secret...)}
	for _, a := range addrs {
		p.clients = append(p.clients, &Client{Addr: a, Secret: secret, Timeout: timeout, Retries: retries})
	}
	p.downTil = make([]time.Time, len(p.clients))
	return p
}

func (p *Pool) now() time.Time {
	if p.Clock != nil {
		return p.Clock.Now()
	}
	return time.Now()
}

// Secret returns the shared secret, which callers need to hide
// User-Password attributes bound to each rebuilt request authenticator.
func (p *Pool) Secret() []byte { return p.secret }

// Servers returns the configured addresses.
func (p *Pool) Servers() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, len(p.clients))
	for i, c := range p.clients {
		out[i] = c.Addr
	}
	return out
}

// SetDial installs a dial hook on every member client (chaos tests inject
// a faultnet dialer) and drains their idle sockets, so every later
// exchange dials through the hook. Call before Exchange traffic starts.
func (p *Pool) SetDial(dial func(network, addr string) (net.Conn, error)) {
	for _, c := range p.clients {
		c.Dial = dial
		c.Close()
	}
}

// Close closes every member client's idle sockets.
func (p *Pool) Close() error {
	for _, c := range p.clients {
		c.Close()
	}
	return nil
}

// SetObs attaches a registry to the pool and to every member client, so
// exchange outcomes and silent discards land in the same place.
func (p *Pool) SetObs(reg *obs.Registry) {
	p.Obs = reg
	for _, c := range p.clients {
		c.Obs = reg
	}
}

// pick returns the next candidate client honouring cooldowns, or -1.
func (p *Pool) pick(now time.Time) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.clients)
	for i := 0; i < n; i++ {
		idx := (p.next + i) % n
		if now.After(p.downTil[idx]) {
			p.next = (idx + 1) % n
			return idx
		}
	}
	return -1
}

func (p *Pool) markDown(idx int) {
	p.mu.Lock()
	p.downTil[idx] = p.now().Add(poolCooldown)
	p.mu.Unlock()
}

// Exchange sends a request via the next healthy server, failing over on
// timeout. Each failover re-randomises the request authenticator and
// re-hides password attributes via the rebuild callback, because hiding
// is bound to the authenticator. rebuild is called with a fresh request
// (Code/Authenticator set) built in pooled scratch and must populate its
// attributes; the request is valid only until Exchange returns. The reply
// owns its bytes.
func (p *Pool) Exchange(rebuild func(req *Packet)) (resp *Packet, err error) {
	err = p.ExchangeRead(rebuild, func(r *Packet) { resp = r.clone() })
	return resp, err
}

// ExchangeRead is Exchange with the verified reply read in place: read is
// called once, with a reply that views pooled scratch and is valid only
// during the call, so the caller copies out only what it keeps.
func (p *Pool) ExchangeRead(rebuild func(req *Packet), read func(resp *Packet)) error {
	start := time.Now()
	err := p.exchange(rebuild, read)
	if p.Obs != nil {
		result := "ok"
		if err != nil {
			result = "error"
		}
		p.Obs.Counter("radius_client_exchange_total", "result", result).Inc()
		p.Obs.Histogram("radius_client_exchange_duration_seconds", nil).ObserveSince(start)
	}
	return err
}

func (p *Pool) exchange(rebuild func(req *Packet), read func(resp *Packet)) error {
	n := len(p.clients)
	if n == 0 {
		return ErrAllDown
	}
	scratch := getPacketBuf()
	defer packetBufs.Put(scratch)
	req := &scratch.pkt
	var lastErr error = ErrAllDown
	lastFailed := -1
	for attempt := 0; attempt < n; attempt++ {
		// Re-read the clock every attempt: the previous attempt may have
		// burned seconds of timeout, during which another server's
		// cooldown expired.
		idx := p.pick(p.now())
		if idx < 0 {
			// Everything is cooling down; desperate fallback to plain
			// round-robin so logins do not hard-fail while a single
			// server flaps (resiliency over strictness) — but never
			// straight back to the server that just failed.
			idx = attempt % n
			if idx == lastFailed && n > 1 {
				idx = (idx + 1) % n
			}
		}
		req.startRequest(0, scratch.buf[:0])
		rebuild(req)
		err := p.clients[idx].exchange(req, read)
		if err == nil {
			return nil
		}
		lastErr = err
		lastFailed = idx
		p.markDown(idx)
		if p.Obs != nil {
			p.Obs.Counter("radius_client_failover_total").Inc()
		}
	}
	return lastErr
}

// packetBuf is pooled scratch for one packet: a Packet and the array its
// image lives in. Getting one never blocks; the pool only trims
// steady-state allocation.
type packetBuf struct {
	pkt Packet
	buf [MaxPacketLen]byte
}

var packetBufs = sync.Pool{New: func() any { return new(packetBuf) }}

func getPacketBuf() *packetBuf { return packetBufs.Get().(*packetBuf) }

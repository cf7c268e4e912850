package radius

import (
	"bytes"
	"errors"
	"net"
	"net/netip"
	"sync"
	"time"

	"openmfa/internal/eventstream"
	"openmfa/internal/obs"
	"openmfa/internal/syncutil"
)

// Handler answers a decoded Access-Request by filling reply, which the
// server owns: set reply.Code and add attributes. The server then sets
// the Identifier, echoes the request's Proxy-State attributes and signs
// the reply (Message-Authenticator first, then the Response
// Authenticator). Returning false drops the request silently. req, reply
// and every value read from either are valid only during the call.
type Handler interface {
	ServeRADIUS(reply *Packet, req *Request) bool
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(reply *Packet, req *Request) bool

// ServeRADIUS calls f.
func (f HandlerFunc) ServeRADIUS(reply *Packet, req *Request) bool { return f(reply, req) }

// Request bundles a decoded packet with its origin and convenience
// accessors for the fields the OTP flow uses. It views the received
// datagram and is valid only during the handler call.
type Request struct {
	Packet *Packet
	Addr   net.Addr
	secret []byte
	trace  string
	user   string
}

// Username returns the User-Name attribute. The string is built once per
// request and shared with the server's log line and event.
func (r *Request) Username() string {
	if r.user == "" {
		r.user = r.Packet.GetString(AttrUserName)
	}
	return r.user
}

// Password reveals the User-Password attribute (the token code in this
// infrastructure). A missing attribute yields "".
func (r *Request) Password() (string, error) {
	hidden, ok := r.Packet.Get(AttrUserPassword)
	if !ok {
		return "", nil
	}
	return RevealPassword(hidden, r.secret, r.Packet.Authenticator)
}

// State returns the State attribute linking a challenge to its response.
// It views the request.
func (r *Request) State() []byte {
	v, _ := r.Packet.Get(AttrState)
	return v
}

// Trace returns the trace ID the NAS attached via Proxy-State, or "". The
// server resolves it once per request, before the handler runs.
func (r *Request) Trace() string { return r.trace }

// traceOf returns the first Proxy-State value of p that looks like a trace
// ID: proxy hops append their own (binary) Proxy-State values.
func traceOf(p *Packet) (trace string) {
	p.Range(func(typ byte, v []byte) bool {
		if typ == AttrProxyState && obs.ValidTraceID(string(v)) {
			trace = string(v)
			return false
		}
		return true
	})
	return trace
}

// Server is a UDP RADIUS server.
type Server struct {
	// Secret is the shared secret for all clients (per-client secrets
	// are overkill for this reproduction; FreeRADIUS supports both).
	Secret []byte
	// Handler processes Access-Requests.
	Handler Handler
	// Logf, when set, receives diagnostic messages.
	Logf func(format string, args ...any)
	// Obs, when set, receives request/outcome counters, per-exchange
	// latency histograms, and radius_server_discards_total{reason=...}
	// for datagrams dropped before handling.
	Obs *obs.Registry
	// Logger, when set, receives a structured line per request
	// (component=radius) carrying the propagated trace ID.
	Logger *obs.Logger
	// Events, when set, receives one typed event per request decision on
	// the operational analytics bus.
	Events *eventstream.Bus
	// Now supplies event timestamps; nil means time.Now. Deployments on a
	// simulated clock inject it so bus events aggregate on simulated time.
	Now func() time.Time
	// ListenPacket binds the server socket; nil means net.ListenPacket.
	// Chaos tests inject a faultnet binder here so the farm side of the
	// exchange sees the same degraded network as the client side.
	ListenPacket func(network, addr string) (net.PacketConn, error)

	mu      sync.Mutex
	conn    net.PacketConn
	closed  bool
	dedup   *dedupTable
	workers syncutil.Workers[datagram]

	// Metric handles, resolved once in ListenAndServe so the per-packet
	// path never touches the registry map.
	mReplays  *obs.Counter
	mDuration *obs.Histogram
	mResults  map[string]*obs.Counter
}

// RFC 2865 §2 duplicate detection: a retransmitted request (same source,
// identifier, and authenticator) within dedupWindow receives the cached
// reply instead of a second evaluation, and one that arrives while the
// original is still being handled waits for that reply, so the handler
// runs exactly once per request. maxDedupEntries caps the cache so spoofed
// source addresses cannot grow it without bound (when full, the oldest
// reservation is evicted): at ≈ 150 bytes of bookkeeping per entry (a
// 96-byte ring slot plus its index entry) this is ≈ 10 MiB worst case,
// while comfortably covering every outstanding request a farm member sees
// within one window.
const (
	dedupWindow     = 5 * time.Second
	maxDedupEntries = 65536
)

// maxProxyStates bounds the Proxy-State attributes (one per proxy hop,
// each echoed in the reply) of an Access-Request the server answers.
const maxProxyStates = 8

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// ListenAndServe binds addr (e.g. "127.0.0.1:0") and serves until Close.
// It returns once the listener is bound; serving continues in background
// goroutines.
func (s *Server) ListenAndServe(addr string) error {
	if len(s.Secret) == 0 {
		// An empty secret degenerates RFC 2865 password hiding to
		// MD5(authenticator) and makes every response forgeable; refuse to
		// serve rather than run an open relay.
		return ErrEmptySecret
	}
	listen := s.ListenPacket
	if listen == nil {
		listen = net.ListenPacket
	}
	conn, err := listen("udp", addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return errors.New("radius: server closed")
	}
	s.conn = conn
	s.dedup = newDedupTable(dedupWindow, maxDedupEntries, time.Now)
	if s.Obs != nil {
		s.mReplays = s.Obs.Counter("radius_retransmit_replays_total")
		s.mDuration = s.Obs.Histogram("radius_request_duration_seconds", nil)
		s.mResults = make(map[string]*obs.Counter)
		for _, res := range []string{"accept", "reject", "challenge", "drop"} {
			s.mResults[res] = s.Obs.Counter("radius_requests_total", "result", res)
		}
	}
	s.mu.Unlock()
	// A duplicate waiting on its original, or a slow handler, never
	// holds up a fresh request (see syncutil.Workers).
	s.workers.Start(func(d *datagram) bool { return d.read(conn) },
		func(d *datagram) { s.handle(conn, d, d.n, d.from) })
	return nil
}

// Addr returns the bound address, or nil before ListenAndServe.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.conn == nil {
		return nil
	}
	return s.conn.LocalAddr()
}

// datagram is a worker's scratch for one received datagram: its bytes,
// their source, the request that views them, and the reply the handler
// fills. Nothing in it outlives the datagram's handling; the duplicate
// cache keeps its own copy of the reply.
type datagram struct {
	in, out packetBuf
	req     Request
	n       int         // bytes read into in
	from    net.Addr    // their source
	src     net.UDPAddr // from, when read as a netip.AddrPort
	ip      [16]byte
}

// read reads one datagram into d and reports false once conn is closed. A
// socket that reports the source as a netip.AddrPort (*net.UDPConn, or
// faultnet's wrapper of one) has it kept in d rather than allocated as a
// net.Addr.
func (d *datagram) read(conn net.PacketConn) bool {
	u, ok := conn.(interface {
		ReadFromUDPAddrPort([]byte) (int, netip.AddrPort, error)
	})
	var err error
	if !ok {
		d.n, d.from, err = conn.ReadFrom(d.in.buf[:])
		return err == nil
	}
	var ap netip.AddrPort
	d.n, ap, err = u.ReadFromUDPAddrPort(d.in.buf[:])
	d.ip = ap.Addr().As16()
	d.src = net.UDPAddr{IP: d.ip[:], Port: int(ap.Port()), Zone: ap.Addr().Zone()}
	d.from = &d.src
	return err == nil
}

// discard drops a datagram before any handling, counting it in
// radius_server_discards_total{reason}.
func (s *Server) discard(reason string, src net.Addr) {
	s.logf("radius: discard datagram from %s: %s", src, reason)
	if s.Obs != nil {
		s.Obs.Counter("radius_server_discards_total", "reason", reason).Inc()
	}
}

// handle answers the n-byte datagram in d from src. An Access-Request
// without a valid Message-Authenticator is discarded before it reaches the
// duplicate cache or the handler (RFC 2869 §5.14, CVE-2024-3596).
func (s *Server) handle(conn net.PacketConn, d *datagram, n int, src net.Addr) {
	req := &d.in.pkt
	if err := req.DecodeFrom(d.in.buf[:n]); err != nil {
		s.discard("malformed", src)
		return
	}
	if req.Code != AccessRequest {
		s.discard("not_request", src)
		return
	}
	if _, ok := req.Get(AttrMessageAuthenticator); !ok {
		s.discard("missing_message_authenticator", src)
		return
	}
	if !VerifyMessageAuthenticator(req, s.Secret) {
		s.discard("bad_message_authenticator", src)
		return
	}
	proxyStates := 0
	req.Range(func(typ byte, _ []byte) bool {
		if typ == AttrProxyState {
			proxyStates++
		}
		return proxyStates <= maxProxyStates
	})
	if proxyStates > maxProxyStates {
		s.discard("too_many_proxy_state", src)
		return
	}

	seq, dup := s.dedup.reserve(dedupKeyOf(src, req.Identifier, req.Authenticator))
	if dup != nil {
		s.mReplays.Inc()
		// Retransmission. The original reservation may still be in the
		// handler: wait for its reply rather than evaluating the request
		// a second time (which would consume the user's OTP twice and
		// answer one retransmission pair with Accept+Reject). If the
		// original never finishes within the window, drop silently —
		// the NAS will retransmit again.
		if reply := dup.wait(); reply != nil {
			conn.WriteTo(reply, src)
		}
		return
	}
	// We own the reservation: evaluate once and publish the reply (nil on
	// drop/error) so concurrent duplicates unblock.
	start := time.Now()
	replyWire, result := s.respond(d, src)
	s.mDuration.ObserveSince(start)
	if c, ok := s.mResults[result]; ok {
		c.Inc()
	}
	if s.Events != nil {
		now := s.Now
		if now == nil {
			now = time.Now
		}
		s.Events.Publish(eventstream.Event{
			Time: now(), Type: eventstream.TypeRadius, Component: "radius",
			Trace: d.req.trace, User: d.req.Username(),
			Addr: src.String(), Result: result,
			Duration: time.Since(start),
		})
	}
	if s.Logger != nil {
		s.Logger.Info("request", "component", "radius", "trace", d.req.trace,
			"user", d.req.Username(), "result", result)
	}
	s.dedup.finish(seq, bytes.Clone(replyWire)) // nil on drop
	if replyWire != nil {
		if _, err := conn.WriteTo(replyWire, src); err != nil {
			s.logf("radius: write to %s: %v", src, err)
		}
	}
}

// respond runs the handler on d's request and returns the signed reply
// image in d's scratch (nil if the request is dropped or the reply cannot
// be built) and the outcome class for metrics.
func (s *Server) respond(d *datagram, src net.Addr) (wire []byte, result string) {
	req := &d.in.pkt
	d.req = Request{Packet: req, Addr: src, secret: s.Secret, trace: traceOf(req)}
	reply := &d.out.pkt
	*reply = Packet{}
	reply.reset(d.out.buf[:0])
	if !s.Handler.ServeRADIUS(reply, &d.req) {
		return nil, "drop"
	}
	switch reply.Code {
	case AccessAccept:
		result = "accept"
	case AccessChallenge:
		result = "challenge"
	default:
		result = "reject"
	}
	reply.Identifier = req.Identifier
	// RFC 2865 §5.33: Proxy-State attributes from the request are copied
	// unmodified into the reply. This also returns the trace ID to the NAS.
	req.Range(func(typ byte, v []byte) bool {
		if typ == AttrProxyState {
			reply.Add(AttrProxyState, v)
		}
		return true
	})
	// Sign over the reply's own image: the Message-Authenticator slot
	// first, computed with the request authenticator in the header, then
	// the Response Authenticator.
	reply.Authenticator = req.Authenticator
	err := AddMessageAuthenticator(reply, s.Secret)
	if err == nil {
		err = SignResponse(reply, req.Authenticator, s.Secret)
	}
	if err != nil {
		s.logf("radius: sign response: %v", err)
		return nil, "drop"
	}
	return reply.image(), result
}

// Close stops the server and waits for in-flight handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	conn := s.conn
	s.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	s.workers.Wait()
	return nil
}

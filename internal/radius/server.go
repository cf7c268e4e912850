package radius

import (
	"errors"
	"net"
	"sync"
	"time"

	"openmfa/internal/eventstream"
	"openmfa/internal/obs"
)

// Handler processes a decoded Access-Request and returns a reply packet
// (Access-Accept, Access-Reject, or Access-Challenge). The returned packet
// needs only Code and Attributes set; the server fills Identifier and the
// response authenticator. Returning nil drops the request silently.
type Handler interface {
	ServeRADIUS(req *Request) *Packet
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(req *Request) *Packet

// ServeRADIUS calls f.
func (f HandlerFunc) ServeRADIUS(req *Request) *Packet { return f(req) }

// Request bundles a decoded packet with its origin and convenience
// accessors for the fields the OTP flow uses.
type Request struct {
	Packet *Packet
	Addr   net.Addr
	secret []byte
}

// Username returns the User-Name attribute.
func (r *Request) Username() string { return r.Packet.GetString(AttrUserName) }

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
func (r *Request) State() []byte {
	v, _ := r.Packet.Get(AttrState)
	return v
}

// Trace returns the trace ID the NAS attached via Proxy-State, or "".
// Proxy hops append their own (binary) Proxy-State values, so only the
// first value that looks like a trace ID counts.
func (r *Request) Trace() string {
	for _, v := range r.Packet.GetAll(AttrProxyState) {
		if s := string(v); obs.ValidTraceID(s) {
			return s
		}
	}
	return ""
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
	// Obs, when set, receives request/outcome counters and per-exchange
	// latency histograms.
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

	mu     sync.Mutex
	conn   net.PacketConn
	closed bool
	dedup  *dedupTable
	wg     sync.WaitGroup

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
// reservation is evicted): at ~60 bytes of bookkeeping per entry this is a
// few MiB worst case, while comfortably covering every outstanding request
// a farm member sees within one window.
const (
	dedupWindow     = 5 * time.Second
	maxDedupEntries = 65536
)

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
	s.wg.Add(1)
	go s.serve(conn)
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

func (s *Server) serve(conn net.PacketConn) {
	defer s.wg.Done()
	buf := make([]byte, MaxPacketLen)
	for {
		n, src, err := conn.ReadFrom(buf)
		if err != nil {
			return // closed
		}
		// Hand the datagram to its handler goroutine in a pooled buffer:
		// handlePacket copies what it keeps (DecodeFrom owns its value
		// storage), so the buffer is recycled as soon as handling returns.
		bp := getWireBuf()
		pkt := append(*bp, buf[:n]...)
		s.wg.Add(1)
		go func(bp *[]byte, pkt []byte, src net.Addr) {
			defer s.wg.Done()
			defer putWireBuf(bp)
			s.handlePacket(conn, pkt, src)
		}(bp, pkt, src)
	}
}

func (s *Server) handlePacket(conn net.PacketConn, wire []byte, src net.Addr) {
	req, err := Decode(wire)
	if err != nil {
		s.logf("radius: drop malformed packet from %s: %v", src, err)
		return
	}
	if req.Code != AccessRequest {
		s.logf("radius: drop %s from %s", req.Code, src)
		return
	}
	if !VerifyMessageAuthenticator(req, s.Secret) {
		s.logf("radius: drop request with bad Message-Authenticator from %s", src)
		return
	}

	key := dedupKey{src: src.String(), id: req.Identifier, auth: req.Authenticator}
	entry, isNew := s.dedup.reserve(key)
	if !isNew {
		s.mReplays.Inc()
		// Retransmission. The original reservation may still be in the
		// handler: wait for its reply rather than evaluating the request
		// a second time (which would consume the user's OTP twice and
		// answer one retransmission pair with Accept+Reject). If the
		// original never finishes within the window, drop silently —
		// the NAS will retransmit again.
		select {
		case <-entry.done:
			if entry.reply != nil {
				conn.WriteTo(entry.reply, src)
			}
		case <-time.After(dedupWindow):
		}
		return
	}
	// We own the reservation: evaluate once and publish the reply (nil on
	// drop/error) so concurrent duplicates unblock.
	start := time.Now()
	replyWire, result, trace := s.respond(req, src)
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
			Trace: trace, User: req.GetString(AttrUserName),
			Addr: src.String(), Result: result,
			Duration: time.Since(start),
		})
	}
	s.Logger.Info("request", "component", "radius", "trace", trace,
		"user", req.GetString(AttrUserName), "result", result)
	s.dedup.finish(entry, replyWire)
	if replyWire != nil {
		if _, err := conn.WriteTo(replyWire, src); err != nil {
			s.logf("radius: write to %s: %v", src, err)
		}
	}
}

// respond runs the handler and returns the signed, encoded reply (nil if
// the request is dropped or the reply cannot be built), the outcome class
// for metrics, and the request's trace ID for logging.
func (s *Server) respond(req *Packet, src net.Addr) (wire []byte, result, trace string) {
	r := &Request{Packet: req, Addr: src, secret: s.Secret}
	trace = r.Trace()
	resp := s.Handler.ServeRADIUS(r)
	if resp == nil {
		return nil, "drop", trace
	}
	switch resp.Code {
	case AccessAccept:
		result = "accept"
	case AccessChallenge:
		result = "challenge"
	default:
		result = "reject"
	}
	resp.Identifier = req.Identifier
	// RFC 2865 §5.33: Proxy-State attributes from the request are copied
	// unmodified into the reply. This also returns the trace ID to the NAS.
	for _, v := range req.GetAll(AttrProxyState) {
		resp.Add(AttrProxyState, v)
	}
	// Responses carry a Message-Authenticator when the request did.
	if _, hadMA := req.Get(AttrMessageAuthenticator); hadMA {
		save := resp.Authenticator
		resp.Authenticator = req.Authenticator
		if err := AddMessageAuthenticator(resp, s.Secret); err != nil {
			s.logf("radius: sign response: %v", err)
			return nil, "drop", trace
		}
		resp.Authenticator = save
	}
	if err := SignResponse(resp, req.Authenticator, s.Secret); err != nil {
		s.logf("radius: sign response: %v", err)
		return nil, "drop", trace
	}
	replyWire, err := resp.Encode()
	if err != nil {
		s.logf("radius: encode response: %v", err)
		return nil, "drop", trace
	}
	return replyWire, result, trace
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
	s.wg.Wait()
	return nil
}

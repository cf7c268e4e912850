package radius

import (
	"encoding/binary"
	"sync/atomic"
)

// Proxy is a Handler that forwards Access-Requests to an upstream server,
// reproducing FreeRADIUS "proxy chaining" (§3.2). The login nodes talk to
// a handful of proxy RADIUS servers which in turn negotiate with the
// server in front of the LinOTP database.
//
// The proxy appends a Proxy-State attribute on the way up (RFC 2865 §5.33)
// and strips it from the reply on the way down, preserving any State
// attribute used by challenge–response flows.
type Proxy struct {
	// Upstream exchanges packets with the next hop.
	Upstream *Client
	counter  uint32
}

// ServeRADIUS implements Handler.
func (p *Proxy) ServeRADIUS(reply *Packet, req *Request) bool {
	fwd := NewRequest(0)
	// Copy attributes; User-Password must be re-hidden under the
	// upstream secret and the new authenticator.
	hidden := true
	req.Packet.Range(func(typ byte, v []byte) bool {
		switch typ {
		case AttrUserPassword:
			pw, err := req.Password()
			if err == nil {
				err = fwd.AddPassword(pw, p.Upstream.Secret)
			}
			hidden = err == nil
			return hidden
		case AttrMessageAuthenticator:
			// The upstream client fills fwd's own.
		default:
			fwd.Add(typ, v)
		}
		return true
	})
	if !hidden {
		reply.Code = AccessReject
		return true
	}
	var ps [4]byte
	binary.BigEndian.PutUint32(ps[:], atomic.AddUint32(&p.counter, 1))
	fwd.Add(AttrProxyState, ps[:])

	resp, err := p.Upstream.Exchange(fwd)
	if err != nil {
		return false // drop; the NAS will retransmit and fail over
	}
	reply.Code = resp.Code
	resp.Range(func(typ byte, v []byte) bool {
		if typ != AttrProxyState && typ != AttrMessageAuthenticator {
			reply.Add(typ, v)
		}
		return true
	})
	return true
}

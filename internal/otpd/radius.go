package otpd

import (
	"errors"

	"openmfa/internal/radius"
)

// RadiusHandler adapts the OTP platform to the RADIUS protocol, the glue
// described in §3.2: "The token code is sent using challenge-response
// functionality of the RADIUS protocol to a server that then negotiates a
// response from the LinOTP database."
//
// Request handling:
//
//   - Empty User-Password from an SMS-paired user → trigger a text message
//     and answer Access-Challenge with a State attribute and a
//     Reply-Message ("an SMS ... has been sent", or the already-sent
//     notice while a code is active).
//   - Otherwise validate the code: Access-Accept on success (the code is
//     nullified), Access-Reject with a Reply-Message on failure.
type RadiusHandler struct {
	OTP *Server
}

// ServeRADIUS implements radius.Handler: it fills the server's reply.
func (h *RadiusHandler) ServeRADIUS(reply *radius.Packet, req *radius.Request) bool {
	user := req.Username()
	if user == "" {
		return reject(reply, "missing user name")
	}
	code, err := req.Password()
	if err != nil {
		return reject(reply, "undecodable password attribute")
	}
	// The NAS's trace ID rides in on Proxy-State; otpd's span, events and
	// log lines join the same trace.
	trace := req.Trace()

	if code == "" {
		// Null request: SMS trigger (§3.4 Figure 2).
		_, msg, err := h.OTP.triggerSMSTraced(trace, user)
		switch {
		case errors.Is(err, ErrNotSMS), errors.Is(err, ErrNoToken):
			// Not an SMS user: prompt for the device code directly.
			return challenge(reply, "enter your token code")
		case errors.Is(err, ErrLockedOut):
			return reject(reply, "token deactivated; contact support")
		case err != nil:
			return reject(reply, "token service unavailable")
		}
		return challenge(reply, msg)
	}

	res, err := h.OTP.checkTraced(trace, user, code)
	switch {
	case errors.Is(err, ErrNoToken):
		return reject(reply, "no token paired")
	case errors.Is(err, ErrLockedOut):
		return reject(reply, "token deactivated; contact support")
	case err != nil:
		return reject(reply, "token service unavailable")
	}
	if !res.OK {
		return reject(reply, res.Message)
	}
	reply.Code = radius.AccessAccept
	reply.AddString(radius.AttrReplyMessage, res.Message)
	return true
}

func reject(reply *radius.Packet, msg string) bool {
	reply.Code = radius.AccessReject
	reply.AddString(radius.AttrReplyMessage, msg)
	return true
}

func challenge(reply *radius.Packet, msg string) bool {
	reply.Code = radius.AccessChallenge
	reply.AddString(radius.AttrState, "otpd-challenge")
	reply.AddString(radius.AttrReplyMessage, msg)
	return true
}

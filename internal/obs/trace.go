package obs

import (
	"crypto/rand"
	"encoding/hex"
)

// Trace IDs follow one authentication across layers: sshd assigns one per
// connection, the PAM stack tags every module decision with it, the token
// module carries it to the RADIUS server inside a Proxy-State attribute,
// and the RADIUS server hands it to otpd as a plain string with the
// request — so a single grep over the logs reconstructs the full path of
// any login.

// NewTraceID returns a fresh 16-hex-character trace ID.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// The kernel CSPRNG is load-bearing elsewhere (key material);
		// losing a trace ID is not worth crashing an auth path over.
		return "0000000000000000"
	}
	var h [16]byte
	hex.Encode(h[:], b[:])
	return string(h[:])
}

// ValidTraceID reports whether s looks like a trace ID (8–32 lowercase hex
// characters). RADIUS Proxy-State attributes are shared with proxy-hop
// bookkeeping, so receivers use this to tell trace IDs from opaque proxy
// state.
func ValidTraceID(s string) bool {
	if len(s) < 8 || len(s) > 32 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

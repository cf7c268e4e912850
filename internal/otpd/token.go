// Package otpd is the OTP platform at the core of the back end — the
// LinOTP substitute (§3.1). It keeps the repository of users and their
// associated one-time-password secret keys (encrypted at rest), validates
// token codes with replay protection and drift windows, enforces the
// 20-consecutive-failure lockout, implements the SMS challenge flow, static
// training tokens, token resynchronisation, an HMAC-chained audit log, and
// a REST admin API protected by HTTP Digest authentication.
package otpd

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"openmfa/internal/store"
)

// unmarshal wraps json.Unmarshal with a package-tagged error.
func unmarshal(b []byte, v any) error {
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("otpd: decode: %w", err)
	}
	return nil
}

// TokenType is the device pairing class (§3.3, Table 1).
type TokenType string

// The four token types the deployment supports.
const (
	TokenSoft     TokenType = "soft"     // in-house smartphone app
	TokenSMS      TokenType = "sms"      // Twilio-delivered codes
	TokenHard     TokenType = "hard"     // Feitian OTP c200 fob
	TokenTraining TokenType = "training" // static code for workshop accounts
)

// ValidType reports whether t is a known token type.
func ValidType(t TokenType) bool {
	switch t {
	case TokenSoft, TokenSMS, TokenHard, TokenTraining:
		return true
	}
	return false
}

// DefaultLockoutThreshold is the paper's deactivation threshold: "A
// threshold of 20 consecutive failed attempts must occur before a user
// account is temporarily deactivated" (§3.1).
const DefaultLockoutThreshold = 20

// record is the persisted form of a token. Secrets are sealed with the
// server's Box before they reach the store.
type record struct {
	User         string    `json:"user"`
	Type         TokenType `json:"type"`
	SecretSealed []byte    `json:"secret_sealed,omitempty"`
	StaticSealed []byte    `json:"static_sealed,omitempty"`
	Serial       string    `json:"serial,omitempty"`
	Phone        string    `json:"phone,omitempty"`
	Active       bool      `json:"active"`
	FailCount    int       `json:"fail_count"`
	LastCounter  uint64    `json:"last_counter"` // replay high-water mark
	LastSMSUnix  int64     `json:"last_sms_unix,omitempty"`
	CreatedUnix  int64     `json:"created_unix"`
	// Provisional marks a portal enrolment no code has confirmed yet: it
	// reads as unpaired. Records from before the flag decode as confirmed.
	Provisional bool `json:"provisional,omitempty"`
	// PairingID is random per pairing; the portal's unpair link binds it.
	PairingID uint64 `json:"pairing_id,omitempty"`

	// secret is SecretSealed unsealed, kept beside it in the store's
	// decoded copy and never written out; nil for training tokens and
	// for a sealed secret that does not open.
	secret []byte
}

// TokenInfo is the admin-visible view of a token (no secret material).
type TokenInfo struct {
	User        string    `json:"user"`
	Type        TokenType `json:"type"`
	Serial      string    `json:"serial,omitempty"`
	Phone       string    `json:"phone,omitempty"`
	Active      bool      `json:"active"`
	FailCount   int       `json:"fail_count"`
	Created     time.Time `json:"created"`
	Provisional bool      `json:"provisional,omitempty"`
}

func (r *record) info() TokenInfo {
	return TokenInfo{
		User: r.User, Type: r.Type, Serial: r.Serial, Phone: r.Phone,
		Active: r.Active, FailCount: r.FailCount,
		Created: time.Unix(r.CreatedUnix, 0).UTC(), Provisional: r.Provisional,
	}
}

func tokenKey(user string) string     { return "token/" + strings.ToLower(user) }
func hardInvKey(serial string) string { return "hardinv/" + serial }

// Well-known errors.
var (
	ErrNoToken   = errors.New("otpd: user has no token")
	ErrHasToken  = errors.New("otpd: user already has a token")
	ErrLockedOut = errors.New("otpd: token deactivated after too many failures")
	ErrBadType   = errors.New("otpd: invalid token type")
	ErrBadSerial = errors.New("otpd: unknown or assigned hard token serial")
	ErrNotSMS    = errors.New("otpd: token is not an SMS token")
	ErrInactive  = errors.New("otpd: token is inactive")
	ErrBadStatic = errors.New("otpd: static code must be six digits")
)

// loadRecord returns user's token record (user lowercased) as the store
// holds it decoded: decoded once per write of its bytes, with its secret
// unsealed. The record is shared with every other reader, so callers
// change a copy (r := *rec) and save that.
func (s *Server) loadRecord(user string) (*record, error) {
	v, err := s.db.View(tokenKey(user), func(b []byte) (any, error) { return s.decodeRecord(user, b) })
	if errors.Is(err, store.ErrNotFound) {
		return nil, ErrNoToken
	}
	if err != nil {
		return nil, err
	}
	return v.(*record), nil
}

// decodeRecord decodes user's stored token record and unseals its secret.
// A secret that does not open stays nil; the check that needs it reports
// the unseal error.
func (s *Server) decodeRecord(user string, b []byte) (*record, error) {
	r := new(record)
	if err := json.Unmarshal(b, r); err != nil {
		return nil, fmt.Errorf("otpd: corrupt record for %s: %w", user, err)
	}
	if r.SecretSealed != nil {
		r.secret, _ = s.openSecret(user, r.SecretSealed)
	}
	return r, nil
}

// saveRecord writes r and hands it to the store as the record's decoded
// form, so the next load does not decode what was just encoded. r must
// not be changed afterwards, and r.secret must be what SecretSealed
// unseals to: a new record sets the two together, and a copy of a loaded
// record, whose sealed secret no state change touches, carries both over.
func (s *Server) saveRecord(r *record) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	op := [1]store.Op{{Key: tokenKey(r.User), Value: b, Decoded: r}}
	// Through its concrete writers the op stays on the stack.
	switch w := s.writes.(type) {
	case *store.Store:
		return w.Apply(op[:])
	case *store.Batcher:
		return w.Apply(op[:])
	}
	return s.writes.Apply([]store.Op{op[0]})
}

// Pairing is the PAM token module's pairing lookup (pam.PairingLookup),
// the Figure 2 query: the type of user's confirmed token. No token, or a
// provisional one, reads "none". Any other failure to read the record is
// an error, on which the token module challenges and never waives.
func (s *Server) Pairing(user string) (string, error) {
	typ, _, err := s.pairing(user)
	return typ, err
}

// pairing is Pairing with the pairing's ID, which the admin API's
// /pairing hands the portal.
func (s *Server) pairing(user string) (string, uint64, error) {
	r, err := s.loadRecord(strings.ToLower(user))
	switch {
	case errors.Is(err, ErrNoToken) || err == nil && r.Provisional:
		return "none", 0, nil
	case err != nil:
		return "", 0, err
	}
	return string(r.Type), r.PairingID, nil
}

// clearProvisional removes user's provisional token, which a new
// enrolment replaces; a confirmed token is ErrHasToken. The caller holds
// user's stripe.
func (s *Server) clearProvisional(user string) error {
	cur, err := s.loadRecord(user)
	switch {
	case errors.Is(err, ErrNoToken):
		return nil
	case err != nil:
		return err
	case !cur.Provisional:
		return ErrHasToken
	}
	return s.remove(user, cur)
}

// remove deletes user's token cur (nil if unreadable) in one Apply, which
// puts a provisional hard token's fob back into inventory: it was never
// confirmed in the user's hands. A confirmed fob stays out, as it may be
// lost. No assignment races the restore: the fob is not in inventory.
func (s *Server) remove(user string, cur *record) error {
	ops := []store.Op{{Key: tokenKey(user), Delete: true}}
	if cur != nil && cur.Provisional && cur.Type == TokenHard {
		secret, err := s.secretOf(user, cur)
		if err != nil {
			return err
		}
		b, err := s.fobValue(cur.Serial, secret)
		if err != nil {
			return err
		}
		ops = append(ops, store.Op{Key: hardInvKey(cur.Serial), Value: b})
	}
	return s.db.Apply(ops)
}

func (s *Server) sealSecret(user string, secret []byte) []byte {
	return s.box.Seal(secret, []byte("user:"+strings.ToLower(user)))
}

func (s *Server) openSecret(user string, sealed []byte) ([]byte, error) {
	return s.box.Open(sealed, []byte("user:"+strings.ToLower(user)))
}

// secretOf returns r's unsealed secret, or the unseal error of a sealed
// secret that did not open when r was decoded. The slice is shared:
// read it, never change it.
func (s *Server) secretOf(user string, r *record) ([]byte, error) {
	if r.secret != nil {
		return r.secret, nil
	}
	return s.openSecret(user, r.SecretSealed)
}

// hardInventory is the persisted form of an unassigned fob.
type hardInventory struct {
	Serial       string `json:"serial"`
	SecretSealed []byte `json:"secret_sealed"`
}

// ImportHardToken loads one pre-programmed fob into inventory. The paper's
// batch purchase "came pre-programmed with a secret key, all of which were
// provided at the time of batch purchase" (§3.3).
func (s *Server) ImportHardToken(serial string, secret []byte) error {
	if serial == "" || len(secret) == 0 {
		return errors.New("otpd: serial and secret required")
	}
	s.serials.Lock(serial)
	defer s.serials.Unlock(serial)
	if s.db.Has(hardInvKey(serial)) {
		return fmt.Errorf("otpd: serial %s already imported", serial)
	}
	b, err := s.fobValue(serial, secret)
	if err != nil {
		return err
	}
	if err := s.db.Put(hardInvKey(serial), b); err != nil {
		return err
	}
	s.audit.Record("import_hard", "", "serial="+serial, true)
	return nil
}

// fobValue is the stored inventory entry of fob serial.
func (s *Server) fobValue(serial string, secret []byte) ([]byte, error) {
	return json.Marshal(hardInventory{Serial: serial, SecretSealed: s.box.Seal(secret, []byte("serial:"+serial))})
}

// HardInventoryCount reports unassigned fobs remaining.
func (s *Server) HardInventoryCount() int { return s.db.Count("hardinv/") }

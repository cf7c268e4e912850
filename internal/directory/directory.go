// Package directory implements the LDAP-substitute identity directory
// (§3.1: LinOTP "extends an existing identity management database reserved
// for Lightweight Directory Access Protocol (LDAP) queries"; §3.4: "The
// token module queries for existing LDAP entries on the authenticating user
// to distinguish between possible authentication routes").
//
// The directory holds one entry per user, keyed by the uid it shares with
// the OTP database. The uid is normalised exactly as internal/idm keys its
// accounts (lowercased, nothing else), so two distinct accounts never share
// an entry. Attribute names are case-insensitive and attributes are
// multi-valued. The one read is Attr: the PAM token module's pairing-type
// query.
package directory

import (
	"errors"
	"strings"
	"sync"
)

// Directory errors.
var (
	ErrExists  = errors.New("directory: entry already exists")
	ErrNoEntry = errors.New("directory: no such entry")
	ErrBadUID  = errors.New("directory: empty uid")
)

// Dir is the in-memory directory, safe for concurrent use.
type Dir struct {
	mu      sync.RWMutex
	entries map[string]map[string][]string // uid → lowercase attr → values
}

// New creates an empty directory.
func New() *Dir {
	return &Dir{entries: make(map[string]map[string][]string)}
}

// Add inserts the entry for uid. Attribute names are normalised to
// lowercase; the values are copied.
func (d *Dir) Add(uid string, attrs map[string][]string) error {
	uid = strings.ToLower(uid)
	if uid == "" {
		return ErrBadUID
	}
	e := make(map[string][]string, len(attrs))
	setAttrs(e, attrs)
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.entries[uid]; ok {
		return ErrExists
	}
	d.entries[uid] = e
	return nil
}

// Modify replaces the listed attributes on uid's entry. A nil or empty
// value slice deletes the attribute.
func (d *Dir) Modify(uid string, changes map[string][]string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.entries[strings.ToLower(uid)]
	if !ok {
		return ErrNoEntry
	}
	setAttrs(e, changes)
	return nil
}

// setAttrs writes copies of attrs into e, deleting empty ones.
func setAttrs(e, attrs map[string][]string) {
	for k, v := range attrs {
		k = strings.ToLower(k)
		if len(v) == 0 {
			delete(e, k)
			continue
		}
		e[k] = append([]string(nil), v...)
	}
}

// Attr returns the first value of one attribute of uid's entry ("" when
// the entry lacks it).
func (d *Dir) Attr(uid, attr string) (string, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	e, ok := d.entries[strings.ToLower(uid)]
	if !ok {
		return "", ErrNoEntry
	}
	if v := e[strings.ToLower(attr)]; len(v) > 0 {
		return v[0], nil
	}
	return "", nil
}

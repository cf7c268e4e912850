// Package idm is the identity-management back end: the account database
// that predates MFA in the paper's deployment. It owns first-factor
// credentials: salted password hashes and authorized ed25519 public keys,
// plus each account's email and class.
//
// Each account gets a unique numeric uid (§3.1: "an LDAP entry is
// generated including a unique user ID that becomes common to both
// databases"). The pairing half of that entry, the type the PAM token
// module's Figure 2 query reads and the portal reports on every pairing
// change (§3.5), lives in otpd's token record instead, so one write
// changes it and the replicated store carries it (otpd.Server.Pairing).
package idm

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"openmfa/internal/clock"
	"openmfa/internal/cryptoutil"
	"openmfa/internal/store"
)

// AccountClass labels the behavioural category of an account (§2: SSH
// users, gateways, community accounts; §3.3: training accounts).
type AccountClass string

// Account classes.
const (
	ClassUser      AccountClass = "user"
	ClassStaff     AccountClass = "staff"
	ClassGateway   AccountClass = "gateway"
	ClassCommunity AccountClass = "community"
	ClassTraining  AccountClass = "training"
)

// Account is one identity.
type Account struct {
	Username     string       `json:"username"`
	UID          int          `json:"uid"`
	Email        string       `json:"email"`
	Class        AccountClass `json:"class"`
	PasswordHash string       `json:"password_hash"`
	PublicKeys   []string     `json:"public_keys,omitempty"` // base64 ed25519
	Created      time.Time    `json:"created"`
}

// Errors.
var (
	ErrExists   = errors.New("idm: account already exists")
	ErrNoUser   = errors.New("idm: no such account")
	ErrBadCreds = errors.New("idm: bad credentials")
)

// IDM is the account database. Reads share the store's decoded copy of
// an account; writes save a changed copy.
type IDM struct {
	db        *store.Store
	clk       clock.Clock
	cacheSalt [16]byte

	mu          sync.Mutex
	nextUID     int
	verifyCache map[[32]byte]bool
}

// New builds an IDM over db, using clk for timestamps (nil means real
// time).
func New(db *store.Store, clk clock.Clock) *IDM {
	if clk == nil {
		clk = clock.Real{}
	}
	idm := &IDM{db: db, clk: clk, nextUID: 1000,
		verifyCache: make(map[[32]byte]bool)}
	copy(idm.cacheSalt[:], cryptoutil.RandomBytes(16))
	// Resume the uid sequence after a restart. The store was just opened,
	// so the only possible Scan error is ErrClosed — nothing to resume
	// then.
	kvs, _ := db.Scan("acct/")
	for _, kv := range kvs {
		var a Account
		if json.Unmarshal(kv.Value, &a) == nil && a.UID >= idm.nextUID {
			idm.nextUID = a.UID + 1
		}
	}
	return idm
}

func acctKey(username string) string { return "acct/" + strings.ToLower(username) }

// Create registers a new account with an initial password and returns it.
func (m *IDM) Create(username, email, password string, class AccountClass) (*Account, error) {
	username = strings.ToLower(strings.TrimSpace(username))
	if username == "" {
		return nil, errors.New("idm: empty username")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.db.Has(acctKey(username)) {
		return nil, ErrExists
	}
	a := &Account{
		Username:     username,
		UID:          m.nextUID,
		Email:        email,
		Class:        class,
		PasswordHash: cryptoutil.HashPassword(password),
		Created:      m.clk.Now().UTC(),
	}
	m.nextUID++
	if err := m.save(a); err != nil {
		return nil, err
	}
	return a.clone(), nil
}

// save writes a and hands it to the store as the account's decoded form;
// a must not be changed afterwards.
func (m *IDM) save(a *Account) error {
	b, err := json.Marshal(a)
	if err != nil {
		return err
	}
	return m.db.Apply([]store.Op{{Key: acctKey(a.Username), Value: b, Decoded: a}})
}

// clone returns a copy of a that shares nothing with it.
func (a *Account) clone() *Account {
	c := *a
	c.PublicKeys = append([]string(nil), a.PublicKeys...)
	return &c
}

// account returns username's account as the store holds it decoded,
// shared with every other reader: read it, never change it.
func (m *IDM) account(username string) (*Account, error) {
	v, err := m.db.View(acctKey(username), func(b []byte) (any, error) {
		a := new(Account)
		if err := json.Unmarshal(b, a); err != nil {
			return nil, fmt.Errorf("idm: corrupt account %s: %w", username, err)
		}
		return a, nil
	})
	if errors.Is(err, store.ErrNotFound) {
		return nil, ErrNoUser
	}
	if err != nil {
		return nil, err
	}
	return v.(*Account), nil
}

// Lookup fetches a copy of an account.
func (m *IDM) Lookup(username string) (*Account, error) {
	a, err := m.account(username)
	if err != nil {
		return nil, err
	}
	return a.clone(), nil
}

// Authenticate checks a first-factor password. Successful verifications
// are cached per (user, hash, password-digest) the way sssd caches
// credentials on HPC login nodes, so heavily scripted accounts do not pay
// the full PBKDF2 cost on every connection. The cache holds salted SHA-256
// digests, never plaintext, and is invalidated automatically when the
// stored hash changes (SetPassword produces a new salt).
func (m *IDM) Authenticate(username, password string) error {
	a, err := m.account(username)
	if err != nil {
		return ErrBadCreds // do not reveal which accounts exist
	}
	ck := m.cacheKey(username, a.PasswordHash, password)
	m.mu.Lock()
	hit := m.verifyCache[ck]
	m.mu.Unlock()
	if hit {
		return nil
	}
	if !cryptoutil.VerifyPassword(a.PasswordHash, password) {
		return ErrBadCreds
	}
	m.mu.Lock()
	if len(m.verifyCache) > 65536 {
		m.verifyCache = make(map[[32]byte]bool) // crude bound
	}
	m.verifyCache[ck] = true
	m.mu.Unlock()
	return nil
}

func (m *IDM) cacheKey(username, storedHash, password string) [32]byte {
	var buf [256]byte // on the stack; a longer input grows onto the heap
	b := append(buf[:0], m.cacheSalt[:]...)
	b = append(append(b, username...), 0)
	b = append(append(b, storedHash...), 0)
	return sha256.Sum256(append(b, password...))
}

// SetPassword replaces the account password.
func (m *IDM) SetPassword(username, password string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	a, err := m.Lookup(username)
	if err != nil {
		return err
	}
	a.PasswordHash = cryptoutil.HashPassword(password)
	return m.save(a)
}

// AddPublicKey registers an ed25519 public key (base64, raw 32 bytes) for
// SSH public-key authentication.
func (m *IDM) AddPublicKey(username string, pub ed25519.PublicKey) error {
	if len(pub) != ed25519.PublicKeySize {
		return errors.New("idm: bad public key size")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	a, err := m.Lookup(username)
	if err != nil {
		return err
	}
	enc := base64.StdEncoding.EncodeToString(pub)
	for _, k := range a.PublicKeys {
		if k == enc {
			return nil // idempotent
		}
	}
	a.PublicKeys = append(a.PublicKeys, enc)
	return m.save(a)
}

// PublicKeys returns the account's authorized keys.
func (m *IDM) PublicKeys(username string) ([]ed25519.PublicKey, error) {
	a, err := m.account(username)
	if err != nil {
		return nil, err
	}
	var out []ed25519.PublicKey
	for _, k := range a.PublicKeys {
		b, err := base64.StdEncoding.DecodeString(k)
		if err == nil && len(b) == ed25519.PublicKeySize {
			out = append(out, ed25519.PublicKey(b))
		}
	}
	return out, nil
}

// All returns every account, sorted by username.
func (m *IDM) All() []*Account {
	var out []*Account
	kvs, _ := m.db.Scan("acct/")
	for _, kv := range kvs {
		var a Account
		if json.Unmarshal(kv.Value, &a) == nil {
			out = append(out, &a)
		}
	}
	return out
}

// Count reports the number of accounts.
func (m *IDM) Count() int { return m.db.Count("acct/") }

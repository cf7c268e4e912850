package otpd

import (
	"bytes"
	"sync"
)

// maxCachedSecrets bounds the token cache. An entry holds the record's
// stored bytes (≈ 185 B of JSON for a soft token), the decoded record with
// its sealed secret, and the unsealed secret: ≈ 540 B measured with the
// map's share, so the worst case is ≈ 70 MiB. Past the cap the whole map
// is dropped and rebuilt read-mostly, which is cheaper and simpler than an
// eviction order the hit path would have to maintain.
const maxCachedSecrets = 1 << 17

// tokenCache is a read-mostly map of user → token record, decoded, with
// its secret unsealed. It exists because reflection decoding of the stored
// record and unsealing its secret (AES-GCM open plus key derivation)
// dominated the validation hot path once the OTP math went
// allocation-free.
//
// Correctness comes from byte identity, never from invalidation: every
// entry carries the stored bytes its record was decoded from, and a lookup
// hits only when the bytes the store returns now are byte-identical. A
// record rewritten by anyone else — a second Server on the same store, a
// replica catching up — therefore misses and is decoded afresh. The
// unsealed secret is likewise kept only while the record's sealed secret
// is byte-identical to the one it was opened from. saveRecord caches the
// bytes it has just written, so a record is decoded once per write, not
// once per read.
type tokenCache struct {
	mu sync.RWMutex
	m  map[string]cachedToken
}

type cachedToken struct {
	raw    []byte // the stored bytes rec was decoded from
	rec    record
	secret []byte // rec.SecretSealed unsealed; nil until first opened
}

func newTokenCache() *tokenCache {
	return &tokenCache{m: make(map[string]cachedToken)}
}

// lookup returns user's record when raw is byte-identical to the bytes it
// was decoded from. The hit path takes a read lock, one map probe and one
// byte comparison — no allocation. The record's slices are shared and
// must be treated as read-only.
func (c *tokenCache) lookup(user string, raw []byte) (record, bool) {
	c.mu.RLock()
	e, ok := c.m[user]
	c.mu.RUnlock()
	if !ok || !bytes.Equal(e.raw, raw) {
		return record{}, false
	}
	return e.rec, true
}

// store caches rec as decoded from (or encoded to) raw; neither may be
// modified afterwards. The unsealed secret of the entry it replaces
// carries over when the sealed secret is unchanged, as it is across every
// failure count or replay high-water mark update.
func (c *tokenCache) store(user string, raw []byte, rec *record) {
	c.mu.Lock()
	e := cachedToken{raw: raw, rec: *rec}
	if old, ok := c.m[user]; ok && bytes.Equal(old.rec.SecretSealed, rec.SecretSealed) {
		e.secret = old.secret
	}
	if len(c.m) >= maxCachedSecrets {
		c.m = make(map[string]cachedToken)
	}
	c.m[user] = e
	c.mu.Unlock()
}

// secret returns user's unsealed secret when the cached record's sealed
// secret is byte-identical to sealed.
func (c *tokenCache) secret(user string, sealed []byte) ([]byte, bool) {
	c.mu.RLock()
	e, ok := c.m[user]
	c.mu.RUnlock()
	if !ok || e.secret == nil || !bytes.Equal(e.rec.SecretSealed, sealed) {
		return nil, false
	}
	return e.secret, true
}

// setSecret attaches secret, unsealed from sealed, to user's entry if that
// entry's record still carries sealed.
func (c *tokenCache) setSecret(user string, sealed, secret []byte) {
	c.mu.Lock()
	if e, ok := c.m[user]; ok && bytes.Equal(e.rec.SecretSealed, sealed) {
		e.secret = secret
		c.m[user] = e
	}
	c.mu.Unlock()
}

// invalidate drops user's entry. Correctness never depends on it; it keeps
// the map from holding users whose token was removed.
func (c *tokenCache) invalidate(user string) {
	c.mu.Lock()
	delete(c.m, user)
	c.mu.Unlock()
}

// openSecretCached is openSecret through the token cache. The returned
// slice is shared between callers and must be treated as read-only —
// every consumer (TOTP computation, resync) only reads it.
func (s *Server) openSecretCached(user string, sealed []byte) ([]byte, error) {
	if sec, ok := s.tokens.secret(user, sealed); ok {
		return sec, nil
	}
	sec, err := s.openSecret(user, sealed)
	if err != nil {
		return nil, err
	}
	s.tokens.setSecret(user, sealed, sec)
	return sec, nil
}

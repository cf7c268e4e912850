package otpd

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"hash"
	"strconv"
	"sync"
	"time"
)

// maxAuditEntries bounds the in-memory trail, the same 65 536 the authlog
// and the RADIUS dedup table keep. One entry is recorded per check, so an
// unbounded trail grew by ≈ 170 B per login for the life of the daemon.
// Past the bound the oldest entry is dropped; Seq keeps counting, so a
// reader sees the gap, and the dropped entry's MAC becomes the anchor the
// chain is verified from.
const maxAuditEntries = 1 << 16

// AuditEntry is one audit record. Entries form an HMAC chain: each entry's
// MAC covers its content plus the previous entry's MAC, so truncation or
// in-place tampering is detectable — LinOTP similarly signs its audit
// trail, and the paper's admins "access audit logs" through the UI (§3.1).
type AuditEntry struct {
	Seq     int       `json:"seq"`
	Time    time.Time `json:"time"`
	Action  string    `json:"action"`
	User    string    `json:"user,omitempty"`
	Detail  string    `json:"detail,omitempty"`
	Success bool      `json:"success"`
	MAC     string    `json:"mac"`
}

// Audit is an in-memory, HMAC-chained audit log holding the most recent
// maxAuditEntries entries.
type Audit struct {
	mu      sync.Mutex
	h       hash.Hash // HMAC-SHA256 keyed once in NewAudit, Reset per MAC
	buf     []byte    // MAC input scratch
	sum     [sha256.Size]byte
	entries []AuditEntry // ring: appended until full, then overwritten at next
	next    int          // oldest entry once the ring is full, else 0
	seq     int          // entries ever recorded
	lastMAC []byte       // MAC of entry seq
	anchor  string       // hex MAC preceding the oldest kept entry ("" before any drop)
	now     func() time.Time
}

// NewAudit creates an audit log signed with key, timestamped by now.
func NewAudit(key []byte, now func() time.Time) *Audit {
	return &Audit{h: hmac.New(sha256.New, key), now: now}
}

// mac computes HMAC(key, "seq|unixnano|action|user|detail|success|" ‖ prev).
// The caller holds a.mu; the result aliases a.sum.
func (a *Audit) mac(e *AuditEntry, prev []byte) []byte {
	b := strconv.AppendInt(a.buf[:0], int64(e.Seq), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, e.Time.UnixNano(), 10)
	b = append(b, '|')
	b = append(b, e.Action...)
	b = append(b, '|')
	b = append(b, e.User...)
	b = append(b, '|')
	b = append(b, e.Detail...)
	b = append(b, '|')
	b = strconv.AppendBool(b, e.Success)
	b = append(b, '|')
	b = append(b, prev...)
	a.buf = b
	a.h.Reset()
	a.h.Write(b)
	return a.h.Sum(a.sum[:0])
}

// Record appends an entry, dropping the oldest once maxAuditEntries are
// kept.
func (a *Audit) Record(action, user, detail string, success bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.seq++
	e := AuditEntry{
		Seq: a.seq, Time: a.now().UTC(),
		Action: action, User: user, Detail: detail, Success: success,
	}
	mac := a.mac(&e, a.lastMAC)
	var hexMAC [2 * sha256.Size]byte
	hex.Encode(hexMAC[:], mac)
	e.MAC = string(hexMAC[:])
	a.lastMAC = append(a.lastMAC[:0], mac...)
	if len(a.entries) < maxAuditEntries {
		a.entries = append(a.entries, e)
		return
	}
	a.anchor = a.entries[a.next].MAC
	a.entries[a.next] = e
	a.next = (a.next + 1) % maxAuditEntries
}

// at returns the i-th kept entry, oldest first. The caller holds a.mu.
func (a *Audit) at(i int) *AuditEntry {
	return &a.entries[(a.next+i)%len(a.entries)]
}

// Entries returns a copy of the kept entries, oldest first.
func (a *Audit) Entries() []AuditEntry {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]AuditEntry, 0, len(a.entries))
	out = append(out, a.entries[a.next:]...)
	return append(out, a.entries[:a.next]...)
}

// Len reports the number of kept entries.
func (a *Audit) Len() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.entries)
}

// Verify walks the kept chain from its anchor and reports the first broken
// entry as a 1-based position in Entries(), or 0 if the chain is intact.
func (a *Audit) Verify() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	prev, err := hex.DecodeString(a.anchor)
	if err != nil {
		return 1
	}
	for i := range a.entries {
		e := a.at(i)
		want := a.mac(e, prev)
		got, err := hex.DecodeString(e.MAC)
		if err != nil || !hmac.Equal(want, got) {
			return i + 1
		}
		prev = got
	}
	return 0
}

// MarshalJSON exports the audit trail.
func (a *Audit) MarshalJSON() ([]byte, error) {
	return json.Marshal(a.Entries())
}

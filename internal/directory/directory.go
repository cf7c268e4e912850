package directory

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Entry is a directory entry: a DN plus multi-valued attributes. Attribute
// names are stored lowercase.
type Entry struct {
	DN    string              `json:"dn"`
	Attrs map[string][]string `json:"attrs"`
}

// Get returns the first value of attr ("" when absent).
func (e *Entry) Get(attr string) string {
	v := e.Attrs[strings.ToLower(attr)]
	if len(v) == 0 {
		return ""
	}
	return v[0]
}

// clone deep-copies the entry.
func (e *Entry) clone() *Entry {
	out := &Entry{DN: e.DN, Attrs: make(map[string][]string, len(e.Attrs))}
	for k, v := range e.Attrs {
		vv := make([]string, len(v))
		copy(vv, v)
		out.Attrs[k] = vv
	}
	return out
}

// NormalizeDN lowercases and strips spaces around RDN components.
func NormalizeDN(dn string) string {
	parts := strings.Split(dn, ",")
	for i, p := range parts {
		parts[i] = strings.ToLower(strings.TrimSpace(p))
	}
	return strings.Join(parts, ",")
}

// Scope controls how much of the subtree a search covers.
type Scope int

// Search scopes, mirroring LDAP's base/one/sub.
const (
	ScopeBase Scope = iota
	ScopeOne
	ScopeSub
)

// Directory errors.
var (
	ErrExists  = errors.New("directory: entry already exists")
	ErrNoEntry = errors.New("directory: no such entry")
	ErrBadDN   = errors.New("directory: malformed DN")
)

// Dir is the in-memory directory, safe for concurrent use.
type Dir struct {
	mu      sync.RWMutex
	entries map[string]*Entry // keyed by normalized DN
}

// New creates an empty directory.
func New() *Dir {
	return &Dir{entries: make(map[string]*Entry)}
}

// Add inserts an entry. Attribute names are normalised to lowercase.
func (d *Dir) Add(dn string, attrs map[string][]string) error {
	ndn := NormalizeDN(dn)
	if ndn == "" {
		return ErrBadDN
	}
	e := &Entry{DN: ndn, Attrs: make(map[string][]string, len(attrs))}
	for k, v := range attrs {
		vv := make([]string, len(v))
		copy(vv, v)
		e.Attrs[strings.ToLower(k)] = vv
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.entries[ndn]; ok {
		return ErrExists
	}
	d.entries[ndn] = e
	return nil
}

// Modify replaces the listed attributes on an existing entry. A nil or
// empty value slice deletes the attribute.
func (d *Dir) Modify(dn string, changes map[string][]string) error {
	ndn := NormalizeDN(dn)
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.entries[ndn]
	if !ok {
		return ErrNoEntry
	}
	for k, v := range changes {
		k = strings.ToLower(k)
		if len(v) == 0 {
			delete(e.Attrs, k)
			continue
		}
		vv := make([]string, len(v))
		copy(vv, v)
		e.Attrs[k] = vv
	}
	return nil
}

// Delete removes an entry.
func (d *Dir) Delete(dn string) error {
	ndn := NormalizeDN(dn)
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.entries[ndn]; !ok {
		return ErrNoEntry
	}
	delete(d.entries, ndn)
	return nil
}

// Lookup fetches one entry by DN.
func (d *Dir) Lookup(dn string) (*Entry, error) {
	ndn := NormalizeDN(dn)
	d.mu.RLock()
	defer d.mu.RUnlock()
	e, ok := d.entries[ndn]
	if !ok {
		return nil, ErrNoEntry
	}
	return e.clone(), nil
}

// Attr returns the first value of one attribute of the entry at dn (""
// when the entry lacks it), reading it under the read lock instead of
// copying the whole entry as Lookup does.
func (d *Dir) Attr(dn, attr string) (string, error) {
	ndn := NormalizeDN(dn)
	d.mu.RLock()
	defer d.mu.RUnlock()
	e, ok := d.entries[ndn]
	if !ok {
		return "", ErrNoEntry
	}
	return e.Get(attr), nil
}

// inScope reports whether dn falls within scope of base (both normalized).
func inScope(dn, base string, scope Scope) bool {
	if base == "" {
		switch scope {
		case ScopeBase:
			return dn == ""
		case ScopeOne:
			return !strings.Contains(dn, ",")
		default:
			return true
		}
	}
	switch scope {
	case ScopeBase:
		return dn == base
	case ScopeOne:
		if !strings.HasSuffix(dn, ","+base) {
			return false
		}
		rel := strings.TrimSuffix(dn, ","+base)
		return !strings.Contains(rel, ",")
	default: // ScopeSub
		return dn == base || strings.HasSuffix(dn, ","+base)
	}
}

// Search returns entries under base (per scope) matching filter, sorted by
// DN. If attrs is non-empty, returned entries carry only those attributes.
func (d *Dir) Search(base string, scope Scope, filter Filter, attrs []string) []*Entry {
	nbase := NormalizeDN(base)
	if base == "" {
		nbase = ""
	}
	d.mu.RLock()
	var out []*Entry
	for dn, e := range d.entries {
		if !inScope(dn, nbase, scope) {
			continue
		}
		if filter != nil && !filter.Matches(e) {
			continue
		}
		out = append(out, e.clone())
	}
	d.mu.RUnlock()
	if len(attrs) > 0 {
		want := make(map[string]bool, len(attrs))
		for _, a := range attrs {
			want[strings.ToLower(a)] = true
		}
		for _, e := range out {
			for k := range e.Attrs {
				if !want[k] {
					delete(e.Attrs, k)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].DN < out[j].DN })
	return out
}

// Len reports the number of entries.
func (d *Dir) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.entries)
}

// UserDN builds the conventional DN for a user account in this deployment.
func UserDN(uid string) string {
	return fmt.Sprintf("uid=%s,ou=people,dc=hpc,dc=example", strings.ToLower(uid))
}

// PeopleBase is the search base for user entries.
const PeopleBase = "ou=people,dc=hpc,dc=example"

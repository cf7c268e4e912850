// Package accessctl implements the paper's MFA exemption access control
// list (§3.4), the mechanism the authors single out as "dynamic, powerful,
// and scalable configurations ... that could not otherwise be similarly
// entertained by other MFA implementations".
//
// The configuration file "extends typical PAM access configuration syntax":
//
//	# action : users : origins : expires
//	permit : gateway1 tg803 : 129.114.0.0/16 : ALL
//	permit : ALL : 206.76.192.0/24 : 2016-10-04
//	deny   : baduser : ALL : ALL
//	permit : visitor : 192.168.7.9 192.168.7.10-192.168.7.20 : 2016-09-27
//
// Semantics reproduced from the paper:
//
//   - Individual accounts, specific IP addresses or IP ranges, or any
//     combination may be targeted, with or without an expiration date.
//   - Special "ALL" keywords may appear in the date, account, and address
//     fields for blanket policies.
//   - Expired rules are ignored automatically ("temporary variances that
//     will automatically expire if the date has passed").
//   - By default all accounts are denied an MFA exemption; administrators
//     must add permit rules explicitly.
//   - First matching rule wins (white/blacklist order is meaningful), so a
//     deny can carve a user out of a broad permit.
//   - "Changes take effect immediately upon write to disk": List.FromFile
//     re-reads the file whenever its mtime changes.
package accessctl

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"time"
)

// Action is the rule outcome.
type Action int

// Rule outcomes. Deny wins by default when nothing matches.
const (
	Deny Action = iota
	Permit
)

// String returns "permit" or "deny".
func (a Action) String() string {
	if a == Permit {
		return "permit"
	}
	return "deny"
}

// Origin matches a connection source.
type origin struct {
	all     bool
	ip      net.IP     // exact address
	cidr    *net.IPNet // CIDR block
	lo, hi  uint32     // dotted range lo-hi (IPv4 only)
	isRange bool
}

func (o origin) matches(ip net.IP) bool {
	if o.all {
		return true
	}
	if o.cidr != nil {
		return o.cidr.Contains(ip)
	}
	if o.isRange {
		v4 := ip.To4()
		if v4 == nil {
			return false
		}
		u := binary.BigEndian.Uint32(v4)
		return u >= o.lo && u <= o.hi
	}
	return o.ip.Equal(ip)
}

// Rule is one parsed configuration line.
type Rule struct {
	Action   Action
	AllUsers bool
	Users    []string
	origins  []origin
	NoExpiry bool      // expires field was ALL
	Expires  time.Time // exemption valid through end of this day (UTC)
	Line     int       // source line for diagnostics
	Raw      string
}

// expired reports whether the rule is no longer in force at now.
func (r Rule) expired(now time.Time) bool {
	if r.NoExpiry {
		return false
	}
	// The paper's variances specify a date; the exemption survives
	// through the end of that day.
	endOfDay := time.Date(r.Expires.Year(), r.Expires.Month(), r.Expires.Day(),
		23, 59, 59, int(time.Second-time.Nanosecond), time.UTC)
	return now.After(endOfDay)
}

func (r Rule) matchesUser(user string) bool {
	if r.AllUsers {
		return true
	}
	for _, u := range r.Users {
		if u == user {
			return true
		}
	}
	return false
}

func (r Rule) matchesOrigin(ip net.IP) bool {
	for _, o := range r.origins {
		if o.matches(ip) {
			return true
		}
	}
	return false
}

// parseRule parses one "action : users : origins : expires" line.
func parseRule(line string, lineNo int) (Rule, error) {
	r := Rule{Line: lineNo, Raw: line}
	parts := strings.Split(line, ":")
	if len(parts) != 4 {
		return r, fmt.Errorf("accessctl: line %d: want 4 ':'-separated fields, got %d", lineNo, len(parts))
	}
	switch strings.ToLower(strings.TrimSpace(parts[0])) {
	case "permit", "+":
		r.Action = Permit
	case "deny", "-":
		r.Action = Deny
	default:
		return r, fmt.Errorf("accessctl: line %d: action %q (want permit/deny)", lineNo, strings.TrimSpace(parts[0]))
	}

	users := strings.Fields(parts[1])
	if len(users) == 0 {
		return r, fmt.Errorf("accessctl: line %d: empty users field", lineNo)
	}
	for _, u := range users {
		if u == "ALL" {
			r.AllUsers = true
		} else {
			r.Users = append(r.Users, u)
		}
	}

	origins := strings.Fields(parts[2])
	if len(origins) == 0 {
		return r, fmt.Errorf("accessctl: line %d: empty origins field", lineNo)
	}
	for _, spec := range origins {
		o, err := parseOrigin(spec)
		if err != nil {
			return r, fmt.Errorf("accessctl: line %d: %w", lineNo, err)
		}
		r.origins = append(r.origins, o)
	}

	exp := strings.TrimSpace(parts[3])
	if exp == "ALL" || exp == "" {
		r.NoExpiry = true
	} else {
		t, err := time.Parse("2006-01-02", exp)
		if err != nil {
			return r, fmt.Errorf("accessctl: line %d: bad expiry %q (want YYYY-MM-DD or ALL)", lineNo, exp)
		}
		r.Expires = t
	}
	return r, nil
}

func parseOrigin(spec string) (origin, error) {
	if spec == "ALL" {
		return origin{all: true}, nil
	}
	if strings.Contains(spec, "/") {
		_, n, err := net.ParseCIDR(spec)
		if err != nil {
			return origin{}, fmt.Errorf("bad CIDR %q", spec)
		}
		return origin{cidr: n}, nil
	}
	if i := strings.IndexByte(spec, '-'); i >= 0 {
		loIP := net.ParseIP(spec[:i])
		hiIP := net.ParseIP(spec[i+1:])
		if loIP == nil || hiIP == nil || loIP.To4() == nil || hiIP.To4() == nil {
			return origin{}, fmt.Errorf("bad IPv4 range %q", spec)
		}
		lo := binary.BigEndian.Uint32(loIP.To4())
		hi := binary.BigEndian.Uint32(hiIP.To4())
		if lo > hi {
			return origin{}, fmt.Errorf("inverted range %q", spec)
		}
		return origin{isRange: true, lo: lo, hi: hi}, nil
	}
	ip := net.ParseIP(spec)
	if ip == nil {
		return origin{}, fmt.Errorf("bad address %q", spec)
	}
	return origin{ip: ip}, nil
}

// Parse reads a full configuration (comments with '#', blank lines
// allowed).
func Parse(content string) ([]Rule, error) {
	var rules []Rule
	sc := bufio.NewScanner(strings.NewReader(content))
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		r, err := parseRule(line, lineNo)
		if err != nil {
			return nil, err
		}
		rules = append(rules, r)
	}
	return rules, sc.Err()
}

// Decision is the result of an exemption check.
type Decision struct {
	Exempt  bool  // true: skip the second factor
	Matched *Rule // the rule that decided, nil when the default applied
}

// List is a hot-reloadable exemption list.
type List struct {
	mu    sync.RWMutex
	rules []Rule
	path  string
	mtime time.Time
}

// NewList builds a List from in-memory rules.
func NewList(rules []Rule) *List {
	return &List{rules: rules}
}

// FromFile loads a List that re-reads path whenever its mtime changes
// ("changes take effect immediately upon write to disk").
func FromFile(path string) (*List, error) {
	l := &List{path: path}
	if err := l.reload(); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *List) reload() error {
	fi, err := os.Stat(l.path)
	if err != nil {
		return fmt.Errorf("accessctl: %w", err)
	}
	l.mu.RLock()
	same := fi.ModTime().Equal(l.mtime) && !l.mtime.IsZero()
	l.mu.RUnlock()
	if same {
		return nil
	}
	b, err := os.ReadFile(l.path)
	if err != nil {
		return fmt.Errorf("accessctl: %w", err)
	}
	rules, err := Parse(string(b))
	if err != nil {
		return err
	}
	l.mu.Lock()
	l.rules = rules
	l.mtime = fi.ModTime()
	l.mu.Unlock()
	return nil
}

// Replace swaps in a new rule set atomically (in-memory lists only; the
// file-backed path reloads from disk instead).
func (l *List) Replace(rules []Rule) {
	l.mu.Lock()
	l.rules = rules
	l.mu.Unlock()
}

// Rules returns a copy of the active rules.
func (l *List) Rules() []Rule {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]Rule, len(l.rules))
	copy(out, l.rules)
	return out
}

// Check evaluates user connecting from addr at time now. If the list is
// file-backed, the file is re-checked first. The first non-expired rule
// matching both the user and the origin decides; otherwise the paper's
// default applies: no exemption (Deny).
func (l *List) Check(user string, addr net.IP, now time.Time) Decision {
	if l.path != "" {
		// A reload failure (e.g. admin mid-edit) keeps the previous
		// rules active rather than failing open or closed.
		_ = l.reload()
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	for i := range l.rules {
		r := &l.rules[i]
		if r.expired(now) {
			continue
		}
		if r.matchesUser(user) && r.matchesOrigin(addr) {
			return Decision{Exempt: r.Action == Permit, Matched: r}
		}
	}
	return Decision{Exempt: false}
}

// Package authlog implements the secure-log channel that connects the SSH
// daemon to the pubkey-success PAM module.
//
// The paper (§3.4): "This module searches recent local secure system entry
// logs to determine this information. ... Information about the state of
// public key authentication is not provided from SSH to PAM. This module is
// the only mechanism known to provide this information." We reproduce that
// arrangement exactly: sshd appends structured events, and the PAM module
// looks up the newest "Accepted publickey" record matching the user and
// connection.
//
// The log doubles as the data source for §4.1 information gathering: every
// successful entry also records shell properties and whether a TTY was
// allocated, which internal/loganalysis aggregates.
package authlog

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// EventType enumerates the record kinds sshd emits.
type EventType string

// Event types. AcceptedPublickey and AcceptedPassword mirror OpenSSH's
// wording; SessionOpen carries the §4.1 shell/TTY telemetry.
const (
	AcceptedPublickey EventType = "Accepted publickey"
	AcceptedPassword  EventType = "Accepted password"
	FailedPassword    EventType = "Failed password"
	FailedToken       EventType = "Failed token"
	AcceptedToken     EventType = "Accepted token"
	SessionOpen       EventType = "Session opened"
	SessionClose      EventType = "Session closed"
)

// Event is one log record.
type Event struct {
	Time   time.Time
	Type   EventType
	User   string
	Addr   string // remote IP
	Port   int    // remote port, 0 if unknown
	TTY    bool   // §4.1: was a terminal session initiated
	Shell  string // §4.1: shell property at login
	Detail string // free text (e.g. key fingerprint)
}

// String renders the event in a syslog-like single line:
//
//	2016-10-04T08:00:00Z Accepted publickey for cproctor from 129.114.0.5 port 50022 tty=yes shell=/bin/bash detail="SHA256:..."
func (e Event) String() string {
	tty := "no"
	if e.TTY {
		tty = "yes"
	}
	return fmt.Sprintf("%s %s for %s from %s port %d tty=%s shell=%s detail=%q",
		e.Time.UTC().Format(time.RFC3339), e.Type, e.User, e.Addr, e.Port, tty, e.Shell, e.Detail)
}

// ParseLine is the inverse of Event.String.
func ParseLine(line string) (Event, error) {
	var e Event
	i := strings.IndexByte(line, ' ')
	if i < 0 {
		return e, errors.New("authlog: malformed line")
	}
	ts, err := time.Parse(time.RFC3339, line[:i])
	if err != nil {
		return e, fmt.Errorf("authlog: bad timestamp: %w", err)
	}
	e.Time = ts
	rest := line[i+1:]

	forIdx := strings.Index(rest, " for ")
	if forIdx < 0 {
		return e, errors.New("authlog: missing 'for'")
	}
	e.Type = EventType(rest[:forIdx])
	rest = rest[forIdx+len(" for "):]

	fromIdx := strings.Index(rest, " from ")
	if fromIdx < 0 {
		return e, errors.New("authlog: missing 'from'")
	}
	e.User = rest[:fromIdx]
	rest = rest[fromIdx+len(" from "):]

	fields := strings.SplitN(rest, " ", 7)
	if len(fields) < 6 || fields[1] != "port" {
		return e, errors.New("authlog: malformed tail")
	}
	e.Addr = fields[0]
	port, err := strconv.Atoi(fields[2])
	if err != nil {
		return e, fmt.Errorf("authlog: bad port: %w", err)
	}
	e.Port = port
	e.TTY = fields[3] == "tty=yes"
	e.Shell = strings.TrimPrefix(fields[4], "shell=")
	if len(fields) >= 6 {
		d := strings.TrimPrefix(strings.Join(fields[5:], " "), "detail=")
		if unq, err := strconv.Unquote(d); err == nil {
			e.Detail = unq
		}
	}
	return e, nil
}

// Log is an append-only auth log with an in-memory recent-events ring (the
// §4.1 analytics read it), an index of the newest retained pubkey success
// per (user, addr) and per (user, ""), and an optional file sink.
type Log struct {
	mu     sync.Mutex
	file   *os.File
	w      *bufio.Writer
	recent []Event // ring buffer: the event appended as seq lives at seq % max
	n      uint64  // events appended so far; the next one's seq
	max    uint64
	pubkey map[pubkeyKey]uint64 // seq of the newest retained AcceptedPublickey
}

type pubkeyKey struct{ user, addr string }

// New creates a log keeping the most recent maxRecent events in memory. If
// path is non-empty, events are also appended to that file.
func New(path string, maxRecent int) (*Log, error) {
	if maxRecent <= 0 {
		maxRecent = 4096
	}
	l := &Log{recent: make([]Event, maxRecent), max: uint64(maxRecent),
		pubkey: make(map[pubkeyKey]uint64)}
	if path != "" {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
		if err != nil {
			return nil, fmt.Errorf("authlog: %w", err)
		}
		l.file = f
		l.w = bufio.NewWriter(f)
	}
	return l, nil
}

// Append records an event.
func (l *Log) Append(e Event) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	slot := &l.recent[l.n%l.max]
	if slot.Type == AcceptedPublickey {
		// The evicted record leaves the index wherever it is still the
		// newest, so the index only ever points into the ring.
		old := l.n - l.max
		l.unindex(pubkeyKey{slot.User, slot.Addr}, old)
		l.unindex(pubkeyKey{slot.User, ""}, old)
	}
	*slot = e
	if e.Type == AcceptedPublickey {
		l.pubkey[pubkeyKey{e.User, e.Addr}] = l.n
		l.pubkey[pubkeyKey{e.User, ""}] = l.n
	}
	l.n++
	if l.w != nil {
		if _, err := l.w.WriteString(e.String() + "\n"); err != nil {
			return fmt.Errorf("authlog: %w", err)
		}
		if err := l.w.Flush(); err != nil {
			return fmt.Errorf("authlog: %w", err)
		}
	}
	return nil
}

// ScanRecent calls fn for each in-memory event from newest to oldest and
// stops when fn returns false.
func (l *Log) ScanRecent(fn func(Event) bool) {
	l.mu.Lock()
	size := min(l.n, l.max)
	events := make([]Event, 0, size)
	for i := uint64(0); i < size; i++ {
		events = append(events, l.recent[(l.n-1-i)%l.max])
	}
	l.mu.Unlock()
	for _, e := range events {
		if !fn(e) {
			return
		}
	}
}

// FindPubkeySuccess reports whether the newest retained AcceptedPublickey
// event for user from addr (any origin when addr is "") is stamped within
// window of now. This is the query the paper's first PAM module performs
// ("Public Key Success?" in Figure 1).
//
// It is one lookup in the per-(user, addr) index Append maintains, whatever
// the ring size or login rate. A record leaves the index when the ring
// overwrites it, so the answer depends only on retained events, as the
// ring walk it replaced did, and never on the stamps of unrelated ones. The
// window is two-sided, |now − t| ≤ window: after a backward clock step a
// record stamped in the future fails closed (the password is asked for)
// instead of waiving the first factor.
func (l *Log) FindPubkeySuccess(user, addr string, now time.Time, window time.Duration) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	seq, ok := l.pubkey[pubkeyKey{user, addr}]
	if !ok {
		return false
	}
	d := now.Sub(l.recent[seq%l.max].Time)
	return -window <= d && d <= window
}

// unindex drops the index entry for k if it still names record seq.
func (l *Log) unindex(k pubkeyKey, seq uint64) {
	if l.pubkey[k] == seq {
		delete(l.pubkey, k)
	}
}

// Close flushes and closes the file sink, if any.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.w != nil {
		if err := l.w.Flush(); err != nil {
			return err
		}
		return l.file.Close()
	}
	return nil
}

// ReadFile parses a log file written by Log into events, skipping
// malformed lines (counted in the second return).
func ReadFile(path string) ([]Event, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("authlog: %w", err)
	}
	defer f.Close()
	var events []Event
	bad := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		if sc.Text() == "" {
			continue
		}
		e, err := ParseLine(sc.Text())
		if err != nil {
			bad++
			continue
		}
		events = append(events, e)
	}
	return events, bad, sc.Err()
}

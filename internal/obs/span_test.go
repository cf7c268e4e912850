package obs

import (
	"fmt"
	"testing"
	"time"
)

func TestSpanTreeParentLinkage(t *testing.T) {
	s := NewSpanStore(16)
	trace := NewTraceID()

	root := s.Start(trace, "sshd.conversation")
	root.SetAttr("user", "alice")
	child := root.StartChild("pam.pam_mfa_token")
	grand := child.StartChild("radius.rtt")
	grand.End()
	child.SetAttr("result", "success")
	child.End()
	root.End()

	spans := s.Trace(trace)
	if len(spans) != 3 {
		t.Fatalf("Trace() returned %d spans, want 3", len(spans))
	}
	// Recorded oldest-End first: grand, child, root.
	byName := map[string]SpanData{}
	for _, d := range spans {
		byName[d.Name] = d
		if d.Trace != trace {
			t.Errorf("span %s: trace = %q, want %q", d.Name, d.Trace, trace)
		}
		if d.End.Before(d.Start) {
			t.Errorf("span %s: End before Start", d.Name)
		}
	}
	r, c, g := byName["sshd.conversation"], byName["pam.pam_mfa_token"], byName["radius.rtt"]
	if r.Parent != 0 {
		t.Errorf("root parent = %d, want 0", r.Parent)
	}
	if c.Parent != r.ID {
		t.Errorf("child parent = %d, want root ID %d", c.Parent, r.ID)
	}
	if g.Parent != c.ID {
		t.Errorf("grandchild parent = %d, want child ID %d", g.Parent, c.ID)
	}
	if len(c.Attrs) != 1 || c.Attrs[0] != (Attr{Key: "result", Value: "success"}) {
		t.Errorf("child attrs = %+v", c.Attrs)
	}
	if len(r.Attrs) != 1 || r.Attrs[0].Value != "alice" {
		t.Errorf("root attrs = %+v", r.Attrs)
	}
}

func TestSpanAttrDedupAndPostEndNoOp(t *testing.T) {
	s := NewSpanStore(4)
	sp := s.Start("aaaa", "x")
	sp.SetAttr("k", "v1")
	sp.SetAttr("k", "v2") // same key: replace, not append
	sp.End()
	sp.SetAttr("k", "v3") // after End: ignored
	sp.End()              // second End: no second record
	got := s.Trace("aaaa")
	if len(got) != 1 {
		t.Fatalf("recorded %d spans, want 1", len(got))
	}
	if len(got[0].Attrs) != 1 || got[0].Attrs[0].Value != "v2" {
		t.Errorf("attrs = %+v, want single k=v2", got[0].Attrs)
	}
}

func TestSpanStoreRingEviction(t *testing.T) {
	s := NewSpanStore(4)
	for i := 0; i < 7; i++ {
		sp := s.Start("ring", fmt.Sprintf("s%d", i))
		sp.End()
	}
	if s.Len() != 4 {
		t.Errorf("Len() = %d, want 4", s.Len())
	}
	if s.Evicted() != 3 {
		t.Errorf("Evicted() = %d, want 3", s.Evicted())
	}
	spans := s.Trace("ring")
	if len(spans) != 4 {
		t.Fatalf("Trace() = %d spans, want 4 retained", len(spans))
	}
	for i, d := range spans {
		if want := fmt.Sprintf("s%d", i+3); d.Name != want {
			t.Errorf("retained span %d = %s, want %s (oldest-first order)", i, d.Name, want)
		}
	}
}

func TestSpanNilSafety(t *testing.T) {
	var s *SpanStore
	sp := s.Start("t", "x")
	if sp != nil {
		t.Fatal("nil store returned non-nil span")
	}
	sp.SetAttr("k", "v")
	sp.End()
	if sp.TraceID() != "" {
		t.Error("nil span TraceID != \"\"")
	}
	if c := sp.StartChild("y"); c != nil {
		t.Error("nil span StartChild != nil")
	}
	if s.Trace("t") != nil || s.Len() != 0 || s.Evicted() != 0 {
		t.Error("nil store queries not empty")
	}
}

func TestSpanDurationsNonZero(t *testing.T) {
	s := NewSpanStore(2)
	sp := s.Start("d", "leg")
	time.Sleep(time.Millisecond)
	sp.End()
	got := s.Trace("d")
	if len(got) != 1 || got[0].Duration() <= 0 {
		t.Fatalf("duration = %v, want > 0", got[0].Duration())
	}
}

package pam

import (
	"errors"
	"strings"
	"testing"

	"openmfa/internal/obs"
)

// fakeModule returns a fixed result and counts invocations.
type fakeModule struct {
	name   string
	result Result
	calls  int
}

func (f *fakeModule) Name() string { return f.name }
func (f *fakeModule) Authenticate(*Context) Result {
	f.calls++
	return f.result
}

func run(t *testing.T, entries ...Entry) error {
	t.Helper()
	s := &Stack{Service: "test", Entries: entries}
	return s.Authenticate(&Context{User: "u"})
}

func TestRequiredSuccess(t *testing.T) {
	if err := run(t, Entry{Required(), &fakeModule{result: Success}}); err != nil {
		t.Fatal(err)
	}
}

func TestRequiredFailureContinuesButFails(t *testing.T) {
	later := &fakeModule{name: "later", result: Success}
	err := run(t,
		Entry{Required(), &fakeModule{name: "fail", result: AuthErr}},
		Entry{Required(), later},
	)
	if !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("err = %v", err)
	}
	// Required failure must not short-circuit (hides which module failed).
	if later.calls != 1 {
		t.Fatal("later module not executed after required failure")
	}
}

func TestRequisiteFailureTerminates(t *testing.T) {
	later := &fakeModule{name: "later", result: Success}
	err := run(t,
		Entry{Requisite(), &fakeModule{name: "fail", result: AuthErr}},
		Entry{Required(), later},
	)
	if !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("err = %v", err)
	}
	if later.calls != 0 {
		t.Fatal("module executed after requisite failure")
	}
}

func TestSufficientSuccessShortCircuits(t *testing.T) {
	later := &fakeModule{name: "later", result: AuthErr}
	err := run(t,
		Entry{Sufficient(), &fakeModule{name: "suff", result: Success}},
		Entry{Required(), later},
	)
	if err != nil {
		t.Fatal(err)
	}
	if later.calls != 0 {
		t.Fatal("module executed after sufficient success")
	}
}

func TestSufficientFailureIgnored(t *testing.T) {
	err := run(t,
		Entry{Sufficient(), &fakeModule{result: AuthErr}},
		Entry{Required(), &fakeModule{result: Success}},
	)
	if err != nil {
		t.Fatalf("sufficient failure leaked: %v", err)
	}
}

func TestSufficientCannotOverrideEarlierRequiredFailure(t *testing.T) {
	// Classic PAM subtlety: sufficient success after a required failure
	// does NOT grant entry.
	err := run(t,
		Entry{Required(), &fakeModule{result: AuthErr}},
		Entry{Sufficient(), &fakeModule{result: Success}},
	)
	if !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("err = %v, want ErrAuthFailed", err)
	}
}

func TestOptionalAloneDecides(t *testing.T) {
	if err := run(t, Entry{Optional(), &fakeModule{result: Success}}); err != nil {
		t.Fatal(err)
	}
	// Optional failure alone: nothing determinative.
	err := run(t, Entry{Optional(), &fakeModule{result: AuthErr}})
	if !errors.Is(err, ErrEmptyStack) {
		t.Fatalf("err = %v, want ErrEmptyStack", err)
	}
}

func TestIgnoreResultNeverCounts(t *testing.T) {
	err := run(t, Entry{Required(), &fakeModule{result: Ignore}})
	if !errors.Is(err, ErrEmptyStack) {
		t.Fatalf("all-ignore stack err = %v", err)
	}
}

func TestEmptyStack(t *testing.T) {
	if err := run(t); !errors.Is(err, ErrEmptyStack) {
		t.Fatalf("err = %v", err)
	}
}

func TestSkipOnSuccessJumps(t *testing.T) {
	skipped := &fakeModule{name: "skipped", result: AuthErr}
	err := run(t,
		Entry{SkipOnSuccess(1), &fakeModule{name: "jump", result: Success}},
		Entry{Requisite(), skipped},
		Entry{Required(), &fakeModule{name: "final", result: Success}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if skipped.calls != 0 {
		t.Fatal("skipped module executed")
	}
}

func TestSkipOnSuccessNoJumpWhenIgnored(t *testing.T) {
	pw := &fakeModule{name: "pw", result: Success}
	err := run(t,
		Entry{SkipOnSuccess(1), &fakeModule{name: "jump", result: Ignore}},
		Entry{Requisite(), pw},
		Entry{Required(), &fakeModule{name: "final", result: Success}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if pw.calls != 1 {
		t.Fatal("password module skipped despite pubkey miss")
	}
}

func TestSkipPastEndIsSafe(t *testing.T) {
	err := run(t,
		Entry{Required(), &fakeModule{result: Success}},
		Entry{SkipOnSuccess(10), &fakeModule{result: Success}},
	)
	if err != nil {
		t.Fatalf("skip past end: %v", err)
	}
}

func TestSkipPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Skip(0) did not panic")
		}
	}()
	Skip(0)
}

func TestFirstFailureSticks(t *testing.T) {
	// A later success cannot launder an earlier required failure.
	err := run(t,
		Entry{Required(), &fakeModule{result: AuthErr}},
		Entry{Required(), &fakeModule{result: Success}},
	)
	if !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("err = %v", err)
	}
}

func TestResultString(t *testing.T) {
	for r, want := range map[Result]string{
		Success: "success", Ignore: "ignore", AuthErr: "auth_err",
		UserUnknown: "user_unknown", SystemErr: "system_err", Result(42): "Result(42)",
	} {
		if r.String() != want {
			t.Errorf("%d.String() = %q", int(r), r.String())
		}
	}
}

func TestContextLogging(t *testing.T) {
	var buf strings.Builder
	s := &Stack{Service: "svc", Entries: []Entry{{Required(), &fakeModule{name: "m1", result: Success}}}}
	ctx := &Context{User: "u", Trace: "tr-1", Logger: obs.NewLogger(&buf, obs.LevelInfo)}
	if err := s.Authenticate(ctx); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 || !strings.Contains(lines[0], "component=pam") ||
		!strings.Contains(lines[0], "trace=tr-1") || !strings.Contains(lines[0], "module=m1") {
		t.Fatalf("log lines = %q, want one module decision line", lines)
	}
}

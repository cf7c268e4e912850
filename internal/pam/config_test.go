package pam

import (
	"errors"
	"strings"
	"testing"
)

func testRegistry() ModuleRegistry {
	return ModuleRegistry{
		"pam_pubkey_success": &fakeModule{name: "pubkey", result: Ignore},
		"pam_password":       &fakeModule{name: "password", result: Success},
		"pam_mfa_exempt":     &fakeModule{name: "exempt", result: Ignore},
		"pam_mfa_token":      &fakeModule{name: "token", result: Success},
	}
}

func TestParseFigureOneConfig(t *testing.T) {
	stack, err := ParseConfig("sshd", FigureOneConfig, testRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if len(stack.Entries) != 4 {
		t.Fatalf("entries = %d", len(stack.Entries))
	}
	names := []string{"pubkey", "password", "exempt", "token"}
	for i, e := range stack.Entries {
		if e.Module.Name() != names[i] {
			t.Fatalf("entry %d = %s, want %s", i, e.Module.Name(), names[i])
		}
	}
	// Semantics: parsed stack authenticates like the hand-built one.
	if err := stack.Authenticate(&Context{User: "u"}); err != nil {
		t.Fatalf("parsed stack: %v", err)
	}
}

func TestParsedConfigSemanticsMatchBuiltStack(t *testing.T) {
	// Password failure must be terminal (requisite) in the parsed stack.
	reg := testRegistry()
	reg["pam_password"] = &fakeModule{name: "password", result: AuthErr}
	token := reg["pam_mfa_token"].(*fakeModule)
	stack, err := ParseConfig("sshd", FigureOneConfig, reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := stack.Authenticate(&Context{User: "u"}); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("err = %v", err)
	}
	if token.calls != 0 {
		t.Fatal("token ran after requisite password failure")
	}

	// Pubkey success must skip the password.
	reg2 := testRegistry()
	reg2["pam_pubkey_success"] = &fakeModule{name: "pubkey", result: Success}
	pw := &fakeModule{name: "password", result: AuthErr}
	reg2["pam_password"] = pw
	stack2, _ := ParseConfig("sshd", FigureOneConfig, reg2)
	if err := stack2.Authenticate(&Context{User: "u"}); err != nil {
		t.Fatalf("pubkey path: %v", err)
	}
	if pw.calls != 0 {
		t.Fatal("password ran despite pubkey skip")
	}

	// Exemption success must short-circuit before the token.
	reg3 := testRegistry()
	reg3["pam_mfa_exempt"] = &fakeModule{name: "exempt", result: Success}
	tok3 := reg3["pam_mfa_token"].(*fakeModule)
	stack3, _ := ParseConfig("sshd", FigureOneConfig, reg3)
	if err := stack3.Authenticate(&Context{User: "u"}); err != nil {
		t.Fatal(err)
	}
	if tok3.calls != 0 {
		t.Fatal("token ran despite sufficient exemption")
	}
}

func TestParseControlVariants(t *testing.T) {
	reg := ModuleRegistry{"m": &fakeModule{name: "m", result: Success}}
	cases := []string{
		"auth required m",
		"auth requisite m",
		"auth sufficient m",
		"auth optional m",
		"auth [success=ok default=bad] m",
		"auth [success=done ignore=ignore default=die] m",
		"auth [success=2 auth_err=bad default=ignore] m",
		"auth [user_unknown=ignore system_err=die default=ok] m",
	}
	for _, line := range cases {
		if _, err := ParseConfig("svc", line, reg); err != nil {
			t.Errorf("ParseConfig(%q): %v", line, err)
		}
	}
}

func TestParseConfigErrors(t *testing.T) {
	reg := ModuleRegistry{"m": &fakeModule{name: "m"}}
	bad := []string{
		"",                           // empty config
		"auth required",              // missing module
		"account required m",         // unsupported facility
		"auth frobnicate m",          // unknown control
		"auth required nosuchmodule", // unknown module
		"auth [success=ok m",         // unterminated bracket
		"auth [success] m",           // token without value
		"auth [success=banana] m",    // unknown action
		"auth [banana=ok] m",         // unknown result key
		"auth [success=0] m",         // zero skip
	}
	for _, cfg := range bad {
		if _, err := ParseConfig("svc", cfg, reg); err == nil {
			t.Errorf("ParseConfig(%q) succeeded, want error", cfg)
		}
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	cfg := "# header\n\n  \nauth required m\n# trailing\n"
	reg := ModuleRegistry{"m": &fakeModule{name: "m", result: Success}}
	stack, err := ParseConfig("svc", cfg, reg)
	if err != nil || len(stack.Entries) != 1 {
		t.Fatalf("%v, %d entries", err, len(stack.Entries))
	}
}

func TestStandardRegistryParsesFigureOneEndToEnd(t *testing.T) {
	// Full integration: the text file drives the real modules.
	h := newHarness(t, "")
	h.addUser(t, "alice", "pw")
	code := h.pairSoft(t, "alice")
	reg := StandardRegistry(h.stackConfig(nil))
	stack, err := ParseConfig("sshd", FigureOneConfig, reg)
	if err != nil {
		t.Fatal(err)
	}
	c := &conv{answers: []any{"pw", func() string { return code() }}}
	ctx := &Context{User: "alice", RemoteAddr: external, Conv: c, Now: h.sim.Now}
	if err := stack.Authenticate(ctx); err != nil {
		t.Fatalf("config-driven stack denied: %v", err)
	}
	if !c.sawPrompt("Password") || !c.sawPrompt("Token") {
		t.Fatalf("prompts = %v", c.prompts)
	}
	// Solaris module resolvable too.
	if _, err := ParseConfig("solaris",
		"auth sufficient pam_solaris_combo\nauth required pam_mfa_token\n", reg); err != nil {
		t.Fatal(err)
	}
}

func TestParseConfigExtraArgsIgnoredInBracketForm(t *testing.T) {
	// Module args after the name are tolerated (parsed as the module
	// name boundary).
	reg := ModuleRegistry{"m": &fakeModule{name: "m", result: Success}}
	stack, err := ParseConfig("svc", "auth [success=ok default=ignore] m some_arg=1", reg)
	if err != nil || len(stack.Entries) != 1 {
		t.Fatalf("%v", err)
	}
	if !strings.Contains(stack.Entries[0].Module.Name(), "m") {
		t.Fatal("wrong module")
	}
}

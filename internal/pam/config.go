package pam

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// This file implements Linux-PAM-style text configuration, the surface
// system administrators actually touch (§3.4: modules "would be
// customized by the system administrator to determine how system entry
// will be allowed", via "configuration files"). A service file looks like
// the real /etc/pam.d entries:
//
//	# /etc/pam.d/sshd
//	auth [success=1 default=ignore]  pam_pubkey_success
//	auth requisite                   pam_password
//	auth sufficient                  pam_mfa_exempt
//	auth required                    pam_mfa_token
//
// Controls accept both the classic keywords and the bracketed
// value=action syntax with actions ok, done, bad, die, ignore, or a skip
// count.

// ModuleRegistry maps module names to instances; the caller registers the
// concrete modules (with their wiring) before parsing.
type ModuleRegistry map[string]Module

// ParseConfig builds a Stack for service from a pam.d-style file body.
func ParseConfig(service, content string, registry ModuleRegistry) (*Stack, error) {
	stack := &Stack{Service: service}
	sc := bufio.NewScanner(strings.NewReader(content))
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		entry, err := parseConfigLine(line, registry)
		if err != nil {
			return nil, fmt.Errorf("pam: %s line %d: %w", service, lineNo, err)
		}
		stack.Entries = append(stack.Entries, entry)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(stack.Entries) == 0 {
		return nil, fmt.Errorf("pam: %s: empty configuration", service)
	}
	return stack, nil
}

func parseConfigLine(line string, registry ModuleRegistry) (Entry, error) {
	fields := strings.Fields(line)
	if len(fields) < 3 {
		return Entry{}, fmt.Errorf("want 'auth <control> <module>', got %q", line)
	}
	if fields[0] != "auth" {
		return Entry{}, fmt.Errorf("unsupported facility %q (only auth)", fields[0])
	}

	var controlStr string
	var moduleName string
	if strings.HasPrefix(fields[1], "[") {
		// Re-join the bracketed control, which may span fields.
		rest := strings.TrimSpace(line[len("auth"):])
		end := strings.IndexByte(rest, ']')
		if end < 0 {
			return Entry{}, fmt.Errorf("unterminated control bracket")
		}
		controlStr = rest[:end+1]
		moduleName = strings.TrimSpace(rest[end+1:])
		if i := strings.IndexByte(moduleName, ' '); i >= 0 {
			moduleName = moduleName[:i]
		}
	} else {
		controlStr = fields[1]
		moduleName = fields[2]
	}
	if moduleName == "" {
		return Entry{}, fmt.Errorf("missing module name")
	}

	control, err := parseControl(controlStr)
	if err != nil {
		return Entry{}, err
	}
	mod, ok := registry[moduleName]
	if !ok {
		return Entry{}, fmt.Errorf("unknown module %q", moduleName)
	}
	return Entry{Control: control, Module: mod}, nil
}

func parseControl(s string) (Control, error) {
	switch s {
	case "required":
		return Required(), nil
	case "requisite":
		return Requisite(), nil
	case "sufficient":
		return Sufficient(), nil
	case "optional":
		return Optional(), nil
	}
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return Control{}, fmt.Errorf("unknown control %q", s)
	}
	c := Control{On: map[Result]Action{}, Default: ActionBad}
	for _, kv := range strings.Fields(s[1 : len(s)-1]) {
		key, val, found := strings.Cut(kv, "=")
		if !found {
			return Control{}, fmt.Errorf("bad control token %q", kv)
		}
		act, err := parseAction(val)
		if err != nil {
			return Control{}, err
		}
		switch key {
		case "success":
			c.On[Success] = act
		case "ignore":
			c.On[Ignore] = act
		case "auth_err":
			c.On[AuthErr] = act
		case "user_unknown":
			c.On[UserUnknown] = act
		case "system_err":
			c.On[SystemErr] = act
		case "default":
			c.Default = act
		default:
			return Control{}, fmt.Errorf("unknown result %q in control", key)
		}
	}
	return c, nil
}

func parseAction(s string) (Action, error) {
	switch s {
	case "ok":
		return ActionOK, nil
	case "done":
		return ActionDone, nil
	case "bad":
		return ActionBad, nil
	case "die":
		return ActionDie, nil
	case "ignore":
		return ActionIgnore, nil
	}
	if n, err := strconv.Atoi(s); err == nil && n >= 1 {
		return Skip(n), nil
	}
	return 0, fmt.Errorf("unknown action %q", s)
}

// StandardRegistry wires the deployment's stock modules from an
// SSHDStackConfig, so the Figure 1 file above parses out of the box.
// Additional or replacement modules can be layered on by the caller.
func StandardRegistry(cfg SSHDStackConfig) ModuleRegistry {
	return ModuleRegistry{
		"pam_pubkey_success": &PubkeySuccess{Log: cfg.AuthLog},
		"pam_password":       &Password{IDM: cfg.IDM},
		"pam_mfa_exempt":     &Exempt{List: cfg.Exemptions},
		"pam_mfa_token":      &Token{Config: cfg.TokenCfg, Pairing: cfg.Pairing, Radius: cfg.Radius},
		"pam_solaris_combo":  &SolarisCombo{Exempt: &Exempt{List: cfg.Exemptions}},
	}
}

// FigureOneConfig is the canonical service file for the paper's stack.
const FigureOneConfig = `# openmfa sshd PAM stack (paper Figure 1)
auth [success=1 default=ignore]  pam_pubkey_success
auth requisite                   pam_password
auth sufficient                  pam_mfa_exempt
auth required                    pam_mfa_token
`

package openmfa_test

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// runFlag is one Makefile `go test -run '…' pkgs…` invocation: the quoted
// pattern and the package paths that follow it.
var runFlag = regexp.MustCompile(`-run '([^']*)'((?:[ \t]+\./\S*)+)`)

var testFunc = regexp.MustCompile(`(?m)^func (Test\w*)\(`)

// testNames lists the top-level tests in a package path as the Makefile
// writes it: ./dir, or ./dir/... for the tree below dir.
func testNames(pkg string) ([]string, error) {
	dir, tree := strings.CutSuffix(pkg, "/...")
	var names []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != dir && !tree:
			return fs.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			names = append(names, string(m[1]))
		}
		return err
	})
	return names, err
}

// deadRunPatterns reports every alternative of a `-run` pattern whose
// top-level name matches no test in the packages it runs. `go test` passes
// such a pattern silently, so a gate that names a deleted or renamed test
// stops gating without failing.
func deadRunPatterns(makefile string) ([]string, error) {
	var dead []string
	for _, m := range runFlag.FindAllStringSubmatch(makefile, -1) {
		pattern, pkgs := m[1], strings.Fields(m[2])
		var names []string
		for _, pkg := range pkgs {
			n, err := testNames(pkg)
			if err != nil {
				return nil, err
			}
			names = append(names, n...)
		}
		for _, alt := range strings.Split(pattern, "|") {
			top, _, _ := strings.Cut(alt, "/")
			re, err := regexp.Compile(top)
			if err != nil {
				return nil, fmt.Errorf("-run %q: %w", pattern, err)
			}
			if !slices.ContainsFunc(names, re.MatchString) {
				dead = append(dead, fmt.Sprintf("-run '%s' %s: %q matches no test", pattern, strings.Join(pkgs, " "), top))
			}
		}
	}
	return dead, nil
}

// Every test the Makefile's gates name by -run still exists.
func TestMakefileRunPatternsNameTests(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(runFlag.FindAllString(string(mk), -1)); n < 10 {
		t.Fatalf("found %d -run invocations in the Makefile; the pattern no longer parses it", n)
	}
	dead, err := deadRunPatterns(string(mk))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dead {
		t.Error(d)
	}

	// The guard bites: a gate naming one live and one missing test.
	dead, err = deadRunPatterns("\t$(GO) test -run 'TestRiskEval|TestNoSuchTest/riskeval' ./internal/rollout\n")
	if err != nil || len(dead) != 1 || !strings.Contains(dead[0], `"TestNoSuchTest" matches no test`) {
		t.Errorf("a pattern naming a missing test: dead = %q, err = %v", dead, err)
	}
}

package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The golden harness runs the full driver (analyzers + allow
// suppression) over the fixture module under testdata/src and
// diff-checks the diagnostics against "// want" expectation comments
// (a backquoted regexp per comment): every diagnostic must match a
// want on its line, and every want must be matched by a diagnostic.
// The "want+1" form anchors the expectation to the following line,
// for findings that land on full-line comments (the allow grammar's
// own diagnostics).

// fixtureConfig scopes the analyzers to the fixture module the same
// way DefaultConfig scopes them to the repo.
func fixtureConfig() Config {
	return Config{
		DeterministicPkgs: []string{"fix/determ", "fix/dtaint", "fix/allowscope"},
		ClockPkg:          "fix/clockpkg",
		ClockRuleFuncs:    []string{"Strobe", "OnStrobe", "Tick", "Reset"},
		ObsPkg:            "fix/fastobs",
		NoopTypes: map[string][]string{
			"fix/fastobs":   {"Counter", "Registry"},
			"fix/flightrec": {"Recorder"},
		},
		HotPkgs: []string{"fix/fastuser"},
		// fix/hotkern.Missing is deliberately stale: the hotpath
		// analyzer must report a config entry that resolves to nothing.
		HotFuncs:  []string{"fix/hotkern.Kernel.Step", "fix/hotkern.Missing"},
		CodecPkgs: []string{"fix/codec"},
	}
}

func TestAnalyzersGolden(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	loader := NewLoader(root, "fix")
	cases := []struct {
		name string
		pkgs []string
	}{
		{"determinism", []string{"fix/determ"}},
		{"determtaint", []string{"fix/dtaint", "fix/dthelp"}},
		{"allowscope", []string{"fix/allowscope"}},
		{"clockrule", []string{"fix/clockpkg", "fix/clockuser"}},
		{"fastpath", []string{"fix/fastobs", "fix/fastuser"}},
		{"fastpath-flight", []string{"fix/flightrec"}},
		{"hotpath", []string{"fix/hotkern"}},
		{"codecpair", []string{"fix/codec"}},
		{"goroutine", []string{"fix/goro"}},
		{"atomics", []string{"fix/atom"}},
		{"atomics-module", []string{"fix/atomuser"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(loader, fixtureConfig(), withoutDeadCode(), tc.pkgs)
			if err != nil {
				t.Fatal(err)
			}
			for _, pkg := range tc.pkgs {
				dir := filepath.Join(root, strings.TrimPrefix(pkg, "fix/"))
				checkGolden(t, dir, res.Diagnostics)
			}
		})
	}
}

// withoutDeadCode is every analyzer but deadcode: the fixture module has
// one main, which reaches only package deadcode, so deadcode would flag
// every other fixture wholesale.
func withoutDeadCode() []*Analyzer {
	var out []*Analyzer
	for _, a := range All() {
		if a != DeadCode {
			out = append(out, a)
		}
	}
	return out
}

// TestDeadCodeGolden checks the deadcode fixture, and that its findings
// do not depend on the package patterns: checking fix/deadcode alone must
// report exactly what checking the whole fixture module reports there.
func TestDeadCodeGolden(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "deadcode")
	inDir := func(diags []Diagnostic) []string {
		var out []string
		for _, d := range diags {
			if filepath.Dir(d.File) == dir {
				out = append(out, d.String())
			}
		}
		return out
	}
	single, err := Run(NewLoader(root, "fix"), fixtureConfig(), []*Analyzer{DeadCode}, []string{"fix/deadcode"})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, dir, single.Diagnostics)

	loader := NewLoader(root, "fix")
	paths, err := loader.Discover()
	if err != nil {
		t.Fatal(err)
	}
	whole, err := Run(loader, fixtureConfig(), []*Analyzer{DeadCode}, paths)
	if err != nil {
		t.Fatal(err)
	}
	a, b := inDir(single.Diagnostics), inDir(whole.Diagnostics)
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Errorf("deadcode depends on the package patterns:\nfix/deadcode alone:\n%s\nwhole module:\n%s",
			strings.Join(a, "\n"), strings.Join(b, "\n"))
	}
}

var wantRe = regexp.MustCompile("// want(\\+1)? `([^`]*)`")

// checkGolden matches the diagnostics landing in dir against the want
// comments of dir's fixture files.
func checkGolden(t *testing.T, dir string, diags []Diagnostic) {
	t.Helper()
	type lineKey struct {
		file string
		line int
	}
	wants := make(map[lineKey][]*regexp.Regexp)
	matched := make(map[*regexp.Regexp]bool)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			target := i + 1 // line numbers are 1-based
			if m[1] == "+1" {
				target++
			}
			re, err := regexp.Compile(m[2])
			if err != nil {
				t.Fatalf("%s:%d: bad want pattern: %v", path, i+1, err)
			}
			wants[lineKey{path, target}] = append(wants[lineKey{path, target}], re)
		}
	}
	for _, d := range diags {
		if filepath.Dir(d.File) != dir {
			continue
		}
		found := false
		for _, re := range wants[lineKey{d.File, d.Line}] {
			if re.MatchString(d.Message) {
				matched[re] = true
				found = true
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for k, res := range wants {
		for _, re := range res {
			if !matched[re] {
				t.Errorf("%s:%d: no diagnostic matching %q", k.file, k.line, re)
			}
		}
	}
}

// TestExplainTaint drives the -why machinery over the determtaint
// fixture: the two-hop finding in dtaint.go must explain as a rendered
// path ending at the wall-clock seed in the helper package.
func TestExplainTaint(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	loader := NewLoader(root, "fix")
	res, err := Run(loader, fixtureConfig(), withoutDeadCode(), []string{"fix/dtaint", "fix/dthelp"})
	if err != nil {
		t.Fatal(err)
	}
	// Locate the Observed call (the two-hop path) by its diagnostic.
	var file string
	var line int
	for _, d := range res.Diagnostics {
		if strings.Contains(d.Message, "call to dthelp.Observed") {
			file, line = d.File, d.Line
		}
	}
	if file == "" {
		t.Fatal("fixture lost the dthelp.Observed finding")
	}
	path := res.ExplainTaint(filepath.Base(file), line)
	if len(path) != 3 {
		t.Fatalf("ExplainTaint returned %d hops, want 3:\n%s", len(path), strings.Join(path, "\n"))
	}
	for i, want := range []string{
		"dtaint.Observe calls dthelp.Observed",
		"dthelp.Observed calls dthelp.Elapsed",
		"dthelp.Elapsed contains time.Since (seed)",
	} {
		if !strings.Contains(path[i], want) {
			t.Errorf("hop %d = %q, want it to contain %q", i, path[i], want)
		}
	}
	if res.ExplainTaint("nosuch.go", 1) != nil {
		t.Error("ExplainTaint invented a path for a position with no finding")
	}
}

// TestRepoClean runs the full suite over the real module with the real
// config: the tree must be clean, every //lint:allow annotation in it
// load-bearing (unused allows are themselves diagnostics).
func TestRepoClean(t *testing.T) {
	root, module, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader := NewLoader(root, module)
	paths, err := loader.Discover()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(loader, DefaultConfig(), All(), paths)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Diagnostics {
		t.Errorf("repo not lint-clean: %s", d)
	}
}

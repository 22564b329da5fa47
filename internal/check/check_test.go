package check

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts the expectation from a `// want "..."` comment.
var wantRe = regexp.MustCompile(`// want "((?:[^"\\]|\\.)*)"`)

// expectations maps file:line to the regexes that must match at least
// one diagnostic reported there.
func readExpectations(t *testing.T, dir string) map[string][]*regexp.Regexp {
	t.Helper()
	out := make(map[string][]*regexp.Regexp)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			m := wantRe.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			pattern, err := unquoteWant(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want pattern: %v", path, line, err)
			}
			re, err := regexp.Compile(pattern)
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp: %v", path, line, err)
			}
			key := fmt.Sprintf("%s:%d", path, line)
			out[key] = append(out[key], re)
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return out
}

func unquoteWant(s string) (string, error) {
	// The capture group preserves backslash escapes; only \" needs help.
	return strings.ReplaceAll(s, `\"`, `"`), nil
}

// runFixture loads one fixture directory under the given fake import
// path, runs a single analyzer, and diffs diagnostics against the
// fixture's want comments.
func runFixture(t *testing.T, a *Analyzer, fixtureDir, pkgPath string, withTypes bool) {
	t.Helper()
	mod, err := FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	abs, err := filepath.Abs(fixtureDir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := NewLoader(mod).LoadDir(abs, pkgPath, withTypes)
	if err != nil {
		t.Fatal(err)
	}
	if withTypes && a.NeedsTypes {
		for _, terr := range pkg.TypeErrors {
			t.Fatalf("fixture %s does not type-check: %v", fixtureDir, terr)
		}
	}

	diffAgainstWants(t, abs, RunAnalyzers(pkg, []*Analyzer{a}))
}

// diffAgainstWants matches diagnostics against the fixture's `// want`
// comments: every diagnostic must match a want on its line, every want
// must be matched by a diagnostic.
func diffAgainstWants(t *testing.T, dir string, diags []Diagnostic) {
	t.Helper()
	want := readExpectations(t, dir)

	matched := make(map[string]map[int]bool) // key → indices of matched wants
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		res, ok := want[key]
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		found := false
		for i, re := range res {
			if re.MatchString(d.Message) {
				if matched[key] == nil {
					matched[key] = make(map[int]bool)
				}
				matched[key][i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("diagnostic at %s does not match any want pattern: %s", key, d.Message)
		}
	}
	for key, res := range want {
		for i, re := range res {
			if !matched[key][i] {
				t.Errorf("%s: no diagnostic matched want %q", key, re)
			}
		}
	}
}

func TestLayeringBadFixture(t *testing.T) {
	runFixture(t, LayeringAnalyzer, "testdata/layering/bad", "repro/internal/core", false)
}

func TestLayeringDistFixture(t *testing.T) {
	runFixture(t, LayeringAnalyzer, "testdata/layering/dist", "repro/internal/dist", false)
}

func TestLayeringHeteroFixture(t *testing.T) {
	runFixture(t, LayeringAnalyzer, "testdata/layering/hetero", "repro/internal/hetero", false)
}

func TestLayeringGridFixture(t *testing.T) {
	runFixture(t, LayeringAnalyzer, "testdata/layering/grid", "repro/internal/grid", false)
}

func TestLayeringTransposeFixture(t *testing.T) {
	runFixture(t, LayeringAnalyzer, "testdata/layering/transpose", "repro/internal/transpose", false)
}

func TestLayeringJSONReadFixture(t *testing.T) {
	runFixture(t, LayeringAnalyzer, "testdata/layering/jsonread", "repro/internal/jsonread", false)
}

func TestLayeringUnknownPackageFixture(t *testing.T) {
	runFixture(t, LayeringAnalyzer, "testdata/layering/unknown", "repro/internal/mystery", false)
}

func TestNondetBadFixture(t *testing.T) {
	runFixture(t, NondetAnalyzer, "testdata/nondet/bad", "repro/internal/core", true)
}

func TestSyncBadFixture(t *testing.T) {
	runFixture(t, SyncAnalyzer, "testdata/synccheck/bad", "repro/internal/badsync", true)
}

func TestErrcheckBadFixture(t *testing.T) {
	runFixture(t, ErrcheckAnalyzer, "testdata/errcheck/bad", "repro/internal/baderr", true)
}

func TestPanicMsgBadFixture(t *testing.T) {
	runFixture(t, PanicMsgAnalyzer, "testdata/panicmsg/bad", "repro/internal/badpanic", true)
}

// TestCleanFixtures: the negative fixtures must produce zero diagnostics,
// which also exercises the //bbvet:ignore allowlist sites they contain.
func TestCleanFixtures(t *testing.T) {
	cases := []struct {
		analyzer  *Analyzer
		dir       string
		pkgPath   string
		withTypes bool
	}{
		{LayeringAnalyzer, "testdata/layering/clean", "repro/internal/gantt", false},
		{NondetAnalyzer, "testdata/nondet/clean", "repro/internal/core", true},
		{SyncAnalyzer, "testdata/synccheck/clean", "repro/internal/goodsync", true},
		{ErrcheckAnalyzer, "testdata/errcheck/clean", "repro/internal/gooderr", true},
		{PanicMsgAnalyzer, "testdata/panicmsg/clean", "repro/internal/goodpanic", true},
	}
	for _, c := range cases {
		t.Run(c.analyzer.Name, func(t *testing.T) {
			runFixture(t, c.analyzer, c.dir, c.pkgPath, c.withTypes)
		})
	}
}

// TestNondetSkipsColdPackages: the nondeterminism analyzer is scoped to
// the search-hot packages; the same source under a cold import path must
// be silent.
func TestNondetSkipsColdPackages(t *testing.T) {
	mod, err := FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	abs, err := filepath.Abs("testdata/nondet/bad")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := NewLoader(mod).LoadDir(abs, "repro/internal/report", true)
	if err != nil {
		t.Fatal(err)
	}
	if diags := RunAnalyzers(pkg, []*Analyzer{NondetAnalyzer}); len(diags) != 0 {
		t.Fatalf("nondet fired in a cold package: %v", diags)
	}
}

// TestRepositoryIsClean runs the full suite — per-package and
// whole-program analyzers, directive hygiene included — over the real
// module: the working tree must stay bbvet-clean, mirroring
// `go run ./cmd/bbvet ./...` in scripts/check.sh.
func TestRepositoryIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	mod, err := FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	paths, err := ExpandPatterns(mod, mod.Root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := LoadProgram(mod, paths, ProgramConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range prog.Run(Analyzers(), ProgramAnalyzers()) {
		t.Errorf("%s", d)
	}
}

// TestIgnoreDirectiveScope: a named directive suppresses only the named
// analyzer, and only on its own or the following line.
func TestIgnoreDirectiveScope(t *testing.T) {
	dir := t.TempDir()
	src := `package scratch

import "os"

func a() {
	os.Remove("x") //bbvet:ignore errcheck
}

func b() {
	//bbvet:ignore errcheck
	os.Remove("x")
}

func c() {
	//bbvet:ignore nondet
	os.Remove("x")
}

func d() {
	//bbvet:ignore
	os.Remove("x")
}

func e() {
	//bbvet:ignore errcheck

	os.Remove("x")
}
`
	if err := os.WriteFile(filepath.Join(dir, "scratch.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	mod := Module{Root: dir, Path: "scratchmod"}
	pkg, err := NewLoader(mod).LoadDir(dir, "scratchmod/internal/scratch", true)
	if err != nil {
		t.Fatal(err)
	}
	diags := RunAnalyzers(pkg, []*Analyzer{ErrcheckAnalyzer})
	// Three survivors: the errcheck diagnostics in c (directive names a
	// different analyzer) and e (directive two lines away), plus the
	// staleness report for e's out-of-range errcheck directive.
	if len(diags) != 3 {
		t.Fatalf("want exactly 3 surviving diagnostics, got %d: %v", len(diags), diags)
	}
	stale := 0
	for _, d := range diags {
		if d.Analyzer == DirectiveAnalyzerName {
			stale++
			if !strings.Contains(d.Message, "stale //bbvet:ignore errcheck") {
				t.Errorf("unexpected directive diagnostic: %s", d)
			}
		}
	}
	if stale != 1 {
		t.Fatalf("want exactly 1 stale-directive diagnostic, got %d: %v", stale, diags)
	}
}

// TestUnknownIgnoreName: a directive naming a non-existent analyzer is an
// error — a typo would otherwise suppress nothing, silently.
func TestUnknownIgnoreName(t *testing.T) {
	dir := t.TempDir()
	src := `package scratch

import "os"

func a() {
	os.Remove("x") //bbvet:ignore errchk
}
`
	if err := os.WriteFile(filepath.Join(dir, "scratch.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	mod := Module{Root: dir, Path: "scratchmod"}
	pkg, err := NewLoader(mod).LoadDir(dir, "scratchmod/internal/scratch", true)
	if err != nil {
		t.Fatal(err)
	}
	diags := RunAnalyzers(pkg, []*Analyzer{ErrcheckAnalyzer})
	// The misspelled directive suppresses nothing, so errcheck fires AND
	// the unknown name is reported.
	var unknown, errs int
	for _, d := range diags {
		switch {
		case d.Analyzer == DirectiveAnalyzerName && strings.Contains(d.Message, `unknown analyzer "errchk"`):
			unknown++
		case d.Analyzer == "errcheck":
			errs++
		}
	}
	if unknown != 1 || errs != 1 {
		t.Fatalf("want 1 unknown-name + 1 errcheck diagnostic, got %v", diags)
	}
}

package check

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// HotAllocAnalyzer turns the PR-4 allocs/op benchmark win into a static
// gate: it runs the compiler's escape analysis (`go build -gcflags=-m`)
// over the kernel packages and fails on any heap escape inside a hot
// function that is not covered by the committed allowlist
// (internal/check/testdata/hotalloc.allow). The hot set is the
// allocation-free expansion path — EST/Place scheduling operations,
// child-bound computation, level sweeps, the vertex arena, the
// transposition table's probe and store, and the partitioned search's
// vertex loop and leaf simulation — where a
// new escape means a per-vertex allocation the benchmarks would only
// catch on the next perf run.
//
// Allowlist entries also go stale loudly: an entry matching no current
// escape is itself a diagnostic, so the file can only shrink as paths
// are fixed, never silently over-approve.
var HotAllocAnalyzer = &ProgramAnalyzer{
	Name: "hotalloc",
	Doc:  "gate compiler escape-analysis output for hot kernel functions against a committed allowlist",
	Run:  runHotAlloc,
}

// hotAllocDefaultFunctions is the default hot set: module-relative
// package → function names whose escapes are gated. Matching is by bare
// declaration name, so methods list just the method name.
var hotAllocDefaultFunctions = map[string][]string{
	"internal/sched": {
		"EST", "Place", "Undo", "TruncateTo", "ReadyTasks", "AppendPlacements",
	},
	"internal/core": {
		"bound", "boundChild", "beginExpand", "commitLevel", "sweepInto",
		"coneFor", "restFor", "alloc", "materialize", "tasks", "insertChildren",
		// The one child generator of every search driver.
		"generate",
	},
	// The transposition table is probed for every generated child and
	// stored for every expansion of a dedup search; table allocation and
	// recycling (New, Acquire, Release) live in separate, cold functions.
	"internal/transpose": {"Probe", "Store"},
	// The partitioned search: its vertex loop, the per-expansion suffix
	// sweep, the per-child start time and bound fold, and the leaf
	// simulation. Per-solve set-up (SolvePartitioned, PartitionedOrder) is
	// cold.
	"internal/hetero": {"dfs", "sweep", "start", "suffixBound"},
	"internal/edf":    {"PartitionedLmax"},
}

// hotAllowEntry is one parsed allowlist line:
//
//	<pkgrel> <func> <escape message, '*' suffix = prefix match>
type hotAllowEntry struct {
	pkg, fn, pattern string
	line             int
	used             bool
}

func (e *hotAllowEntry) matches(pkg, fn, desc string) bool {
	if e.pkg != pkg || e.fn != fn {
		return false
	}
	if strings.HasSuffix(e.pattern, "*") {
		return strings.HasPrefix(desc, strings.TrimSuffix(e.pattern, "*"))
	}
	return e.pattern == desc
}

// escapeLine matches the two `-gcflags=-m` diagnostics that mean a heap
// allocation: "<expr> escapes to heap" and "moved to heap: <var>".
var escapeLine = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.+)$`)

func runHotAlloc(pass *ProgramPass) {
	prog := pass.Prog
	cfg := prog.Config

	allows, err := loadHotAllow(cfg.HotAllocAllowFile)
	if err != nil {
		pass.ReportAt(token.Position{Filename: cfg.HotAllocAllowFile}, "cannot read allowlist: %v", err)
		return
	}

	// Deterministic package order.
	rels := make([]string, 0, len(cfg.HotFunctions))
	for rel := range cfg.HotFunctions {
		rels = append(rels, rel)
	}
	sort.Strings(rels)

	analyzed := make(map[string]bool)
	for _, rel := range rels {
		pkg := prog.PkgByRel(rel)
		if pkg == nil {
			continue // hot package not part of this (partial) run
		}
		analyzed[rel] = true
		hot := make(map[string]bool, len(cfg.HotFunctions[rel]))
		for _, fn := range cfg.HotFunctions[rel] {
			hot[fn] = true
		}

		out, err := runEscapeAnalysis(cfg.GoTool, prog.Mod.Root, rel)
		if err != nil {
			pass.ReportAt(token.Position{Filename: pkg.Dir}, "escape analysis failed for %s: %v", rel, err)
			continue
		}

		lookup := funcDeclLookup(pkg)
		for _, sc := range parseEscapes(prog.Mod.Root, out) {
			decl := lookup.enclosing(sc.pos.Filename, sc.pos.Line)
			if decl == nil || !hot[decl.Name.Name] {
				continue
			}
			allowed := false
			for _, e := range allows {
				if e.matches(rel, decl.Name.Name, sc.desc) {
					e.used = true
					allowed = true
				}
			}
			if allowed {
				continue
			}
			pass.ReportAt(sc.pos, "heap escape in hot function %s: %s; the expansion path must stay allocation-free — fix it or allow it in %s",
				decl.Name.Name, sc.desc, relToModule(prog.Mod, cfg.HotAllocAllowFile))
		}
	}

	// Staleness is only decidable for packages that were analyzed in
	// this run.
	for _, e := range allows {
		if analyzed[e.pkg] && !e.used {
			pass.ReportAt(token.Position{Filename: cfg.HotAllocAllowFile, Line: e.line},
				"stale hotalloc allowlist entry (%s %s %s): no current escape matches it; delete it", e.pkg, e.fn, e.pattern)
		}
	}
}

// runEscapeAnalysis invokes the toolchain for one package and returns
// the compiler's -m output (replayed from the build cache when the
// package is already built). cwd is the module root, so emitted
// positions are module-relative.
func runEscapeAnalysis(goTool, modRoot, rel string) (string, error) {
	cmd := exec.Command(goTool, "build", "-gcflags=-m", "./"+rel)
	cmd.Dir = modRoot
	out, err := cmd.CombinedOutput()
	if err != nil {
		msg := strings.TrimSpace(string(out))
		if len(msg) > 300 {
			msg = msg[:300] + "..."
		}
		return "", fmt.Errorf("%v: %s", err, msg)
	}
	return string(out), nil
}

type escapeSite struct {
	pos  token.Position
	desc string
}

// parseEscapes extracts heap-allocation diagnostics from -m output,
// resolving file paths against the module root.
func parseEscapes(modRoot, out string) []escapeSite {
	var sites []escapeSite
	for _, line := range strings.Split(out, "\n") {
		m := escapeLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		desc := m[4]
		if !strings.HasSuffix(desc, "escapes to heap") && !strings.HasPrefix(desc, "moved to heap:") {
			continue
		}
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(modRoot, filepath.FromSlash(file))
		}
		lineNo, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		sites = append(sites, escapeSite{
			pos:  token.Position{Filename: file, Line: lineNo, Column: col},
			desc: desc,
		})
	}
	return sites
}

// declLookup maps a (file, line) compiler position to the enclosing
// top-level function declaration.
type declLookup struct {
	fset  *token.FileSet
	byFil map[string][]*ast.FuncDecl // sorted by start line
}

func funcDeclLookup(pkg *Package) *declLookup {
	l := &declLookup{fset: pkg.Fset, byFil: make(map[string][]*ast.FuncDecl)}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				name := pkg.Fset.Position(fd.Pos()).Filename
				l.byFil[name] = append(l.byFil[name], fd)
			}
		}
	}
	return l
}

func (l *declLookup) enclosing(file string, line int) *ast.FuncDecl {
	for _, fd := range l.byFil[file] {
		start := l.fset.Position(fd.Pos()).Line
		end := l.fset.Position(fd.End()).Line
		if line >= start && line <= end {
			return fd
		}
	}
	return nil
}

// loadHotAllow parses the allowlist; a missing file is an empty list.
func loadHotAllow(path string) ([]*hotAllowEntry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var entries []*hotAllowEntry
	for i, raw := range strings.Split(string(data), "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			return nil, fmt.Errorf("%s:%d: malformed entry (want: pkgrel func escape-message)", path, i+1)
		}
		entries = append(entries, &hotAllowEntry{
			pkg:     fields[0],
			fn:      fields[1],
			pattern: strings.Join(fields[2:], " "),
			line:    i + 1,
		})
	}
	return entries, nil
}

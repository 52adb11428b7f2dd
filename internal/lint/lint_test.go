package lint

// Three layers of coverage:
//
//   - TestFixtures: a table of fixture packages under testdata/src/, each
//     annotated with // want "regex" comments; every emitted diagnostic must
//     match a want on its line and every want must be hit. Fixtures choose
//     their import path with a "// fixture-path:" directive so they can land
//     inside (or outside) the analyzers' path-scoped allowlists.
//   - TestSeededLatchInversion: the acceptance check — a scratch copy of the
//     server package's latch fields with deliberately seeded §S9 inversions
//     must be caught by the latch-order analyzer specifically.
//   - TestRepoIsLintClean: the self-check — the real module must carry zero
//     unsuppressed diagnostics, so `go test ./internal/lint/` fails the
//     moment a change violates an invariant, even before `make lint` runs.

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var (
	wantLineRe    = regexp.MustCompile(`//\s*want\s+(.+)$`)
	wantQuoteRe   = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)
	fixturePathRe = regexp.MustCompile(`(?m)^// fixture-path:\s*(\S+)`)
)

// want is one expected-diagnostic annotation.
type want struct {
	re   *regexp.Regexp
	raw  string
	line int
	own  bool // comment-only line: also covers the following line
	used bool
}

// collectWants parses // want "regex" annotations from every fixture file,
// keyed by base filename. A want on a comment-only line also matches
// diagnostics up to two lines below it (for positions that cannot carry a
// trailing comment, like an //qslint:allow directive — which gofmt separates
// from the preceding doc text with a bare // line).
func collectWants(t *testing.T, dir string) map[string][]*want {
	t.Helper()
	out := make(map[string][]*want)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, ln := range strings.Split(string(data), "\n") {
			mm := wantLineRe.FindStringSubmatch(ln)
			if mm == nil {
				continue
			}
			own := strings.HasPrefix(strings.TrimSpace(ln), "//")
			qs := wantQuoteRe.FindAllStringSubmatch(mm[1], -1)
			if len(qs) == 0 {
				t.Fatalf("%s:%d: malformed want comment (no quoted regex)", e.Name(), i+1)
			}
			for _, q := range qs {
				pat, err := strconv.Unquote(`"` + q[1] + `"`)
				if err != nil {
					t.Fatalf("%s:%d: bad want string: %v", e.Name(), i+1, err)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want regex %q: %v", e.Name(), i+1, pat, err)
				}
				out[e.Name()] = append(out[e.Name()], &want{re: re, raw: pat, line: i + 1, own: own})
			}
		}
	}
	return out
}

// matchDiags pairs diagnostics with wants one-to-one.
func matchDiags(t *testing.T, name string, wants map[string][]*want, diags []Diagnostic) {
	t.Helper()
	for _, d := range diags {
		base := filepath.Base(d.File)
		matched := false
		for _, w := range wants[base] {
			if w.used || !(w.line == d.Line || (w.own && d.Line > w.line && d.Line <= w.line+2)) {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", name, d)
		}
	}
	for base, ws := range wants {
		for _, w := range ws {
			if !w.used {
				t.Errorf("%s: %s:%d: no diagnostic matching %q", name, base, w.line, w.raw)
			}
		}
	}
}

// fixtureImportPath reads the fixture's "// fixture-path:" directive, falling
// back to a synthetic path outside every allowlist.
func fixtureImportPath(t *testing.T, dir, modPath, name string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if mm := fixturePathRe.FindSubmatch(data); mm != nil {
			return string(mm[1])
		}
	}
	return modPath + "/qslintfixtures/" + name
}

func TestFixtures(t *testing.T) {
	m, err := LoadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Join("testdata", "src")
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		dir := filepath.Join(root, name)
		t.Run(name, func(t *testing.T) {
			pkg, err := m.LoadDirAs(dir, fixtureImportPath(t, dir, m.Path, name))
			if err != nil {
				t.Fatal(err)
			}
			diags := Run(m, []*Package{pkg}, All())
			matchDiags(t, name, collectWants(t, dir), diags)
		})
		ran++
	}
	if ran == 0 {
		t.Fatal("no fixtures found under testdata/src")
	}
}

func TestSeededLatchInversion(t *testing.T) {
	m, err := LoadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", "src", "seededserver")
	pkg, err := m.LoadDirAs(dir, m.Path+"/qslintfixtures/seededserver")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(m, []*Package{pkg}, []Analyzer{LatchOrder{}})
	inversions := 0
	for _, d := range diags {
		if d.Analyzer == "latch-order" && strings.Contains(d.Message, "inverts") {
			inversions++
		}
	}
	if inversions == 0 {
		t.Fatalf("seeded §S9 inversions in the scratch server fixture were not caught; got %v", diags)
	}
}

// seededFixture loads one fixture package and runs a single analyzer
// over it, returning that analyzer's diagnostics.
func seededFixture(t *testing.T, name string, a Analyzer) []Diagnostic {
	t.Helper()
	m, err := LoadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", "src", name)
	pkg, err := m.LoadDirAs(dir, fixtureImportPath(t, dir, m.Path, name))
	if err != nil {
		t.Fatal(err)
	}
	var out []Diagnostic
	for _, d := range Run(m, []*Package{pkg}, []Analyzer{a}) {
		if d.Analyzer == a.Name() {
			out = append(out, d)
		}
	}
	return out
}

// requireSeeded asserts that at least one diagnostic carries the marker
// substring — the analyzer-specific proof that the planted violation was
// the thing caught.
func requireSeeded(t *testing.T, diags []Diagnostic, marker string) {
	t.Helper()
	for _, d := range diags {
		if strings.Contains(d.Message, marker) {
			return
		}
	}
	t.Fatalf("seeded violation not caught (no diagnostic contains %q); got %v", marker, diags)
}

func TestSeededForceAck(t *testing.T) {
	diags := seededFixture(t, "seededstandby", ForceAck{})
	requireSeeded(t, diags, "may not have been forced")
	if len(diags) < 3 {
		t.Fatalf("expected the early-return, fast-path, and interprocedural acks to all be caught; got %v", diags)
	}
}

func TestSeededLatchIO(t *testing.T) {
	diags := seededFixture(t, "seededcleanio", LatchIO{})
	requireSeeded(t, diags, "wal force while holding")
	requireSeeded(t, diags, "may force the wal")
}

func TestSeededLogSync(t *testing.T) {
	diags := seededFixture(t, "seededwalsync", LatchIO{})
	requireSeeded(t, diags, "log device sync while holding")
	requireSeeded(t, diags, "may force the wal")
}

func TestSeededGoroutineLeak(t *testing.T) {
	diags := seededFixture(t, "seededworker", Goroutines{})
	requireSeeded(t, diags, "can never terminate")
	requireSeeded(t, diags, "time.Tick")
	requireSeeded(t, diags, "nothing in the module ever closes")
}

func TestSeededSentinel(t *testing.T) {
	diags := seededFixture(t, "seededwrap", Sentinels{})
	requireSeeded(t, diags, "use errors.Is")
	requireSeeded(t, diags, "use errors.As")
}

func TestRepoIsLintClean(t *testing.T) {
	m, err := LoadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	// Mirror `make lint`: the harness's in-package test files carry
	// sweep-replay invariants and must stay clean too.
	m.IncludeTests(m.Path + "/internal/harness")
	pkgs, err := m.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; the module loader is missing most of the tree", len(pkgs))
	}
	for _, d := range Run(m, pkgs, All()) {
		t.Errorf("repo not lint-clean: %s", d)
	}
}

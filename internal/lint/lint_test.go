package lint_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint"
)

// The universe (full dependency closure, type-checked from source) is
// loaded once per test binary; fixtures are checked against it.
var (
	loadOnce sync.Once
	loadedU  *lint.Universe
	loadErr  error
)

func universe(t *testing.T) *lint.Universe {
	t.Helper()
	loadOnce.Do(func() {
		root, err := lint.ModuleRoot(".")
		if err != nil {
			loadErr = err
			return
		}
		loadedU, loadErr = lint.Load(root)
	})
	if loadErr != nil {
		t.Fatalf("load universe: %v", loadErr)
	}
	return loadedU
}

// wantExpectation is one `// want "regex"` comment in a fixture.
type wantExpectation struct {
	file string
	line int
	re   *regexp.Regexp
}

var wantRE = regexp.MustCompile("//\\s*want\\s+`([^`]+)`")

// collectWants parses the fixture package's `// want` comments.
func collectWants(t *testing.T, u *lint.Universe, pkg *lint.Package) []*wantExpectation {
	t.Helper()
	var wants []*wantExpectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("bad want pattern %q: %v", m[1], err)
				}
				pos := u.Fset.Position(c.Pos())
				wants = append(wants, &wantExpectation{file: pos.Filename, line: pos.Line, re: re})
			}
		}
	}
	return wants
}

// checkFixture loads testdata/<dir> as a package with import path asPath,
// runs the analyzer, and matches the diagnostics one-to-one against the
// fixture's `// want` comments.
func checkFixture(t *testing.T, a *lint.Analyzer, dir, asPath string) []lint.Diagnostic {
	t.Helper()
	u := universe(t)
	pkg, err := u.CheckDir(filepath.Join("testdata", dir), asPath)
	if err != nil {
		t.Fatalf("fixture %s: %v", dir, err)
	}
	diags, err := lint.RunAnalyzers(u, []*lint.Package{pkg}, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("run %s on %s: %v", a.Name, dir, err)
	}
	wants := collectWants(t, u, pkg)
	matched := make([]bool, len(wants))
outer:
	for _, d := range diags {
		for i, w := range wants {
			if !matched[i] && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				matched[i] = true
				continue outer
			}
		}
		t.Errorf("unexpected diagnostic: %s", d)
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: missing diagnostic matching %q", w.file, w.line, w.re)
		}
	}
	return diags
}

func TestPairOrderFixtures(t *testing.T) {
	if diags := checkFixture(t, lint.PairOrder, "pairorder/bad", "repro/internal/fixture"); len(diags) == 0 {
		t.Error("bad fixture produced no findings")
	}
	checkFixture(t, lint.PairOrder, "pairorder/good", "repro/internal/fixture")
}

// The blessed package itself is exempt: checked under the workflow import
// path, even ad-hoc comparisons are accepted (they define the convention).
func TestPairOrderExemptInWorkflowPackage(t *testing.T) {
	u := universe(t)
	pkg, err := u.CheckDir(filepath.Join("testdata", "pairorder/bad"), "repro/internal/workflow")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.RunAnalyzers(u, []*lint.Package{pkg}, []*lint.Analyzer{lint.PairOrder})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("got %d findings inside the blessed package, want 0: %v", len(diags), diags)
	}
}

func TestSnapshotPinFixtures(t *testing.T) {
	for _, path := range []string{
		"repro/internal/search",
		"repro/internal/cluster",
		"repro/internal/shard",
		"repro/pkg/wfsim",
	} {
		if diags := checkFixture(t, lint.SnapshotPin, "snapshotpin/bad", path); len(diags) == 0 {
			t.Errorf("bad fixture under %s produced no findings", path)
		}
	}
	checkFixture(t, lint.SnapshotPin, "snapshotpin/good", "repro/internal/search")
}

// Outside the pinned read paths, direct repository reads are allowed — the
// corpus package itself, tools, and the write path use them legitimately.
func TestSnapshotPinScope(t *testing.T) {
	u := universe(t)
	pkg, err := u.CheckDir(filepath.Join("testdata", "snapshotpin/bad"), "repro/internal/tooling")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.RunAnalyzers(u, []*lint.Package{pkg}, []*lint.Analyzer{lint.SnapshotPin})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("got %d findings outside the pinned scope, want 0: %v", len(diags), diags)
	}
}

func TestOnePinFixtures(t *testing.T) {
	for _, path := range []string{"repro/pkg/wfsim/serve", "repro/cmd/wfsim"} {
		if diags := checkFixture(t, lint.OnePin, "onepin/bad", path); len(diags) != 3 {
			t.Errorf("bad fixture under %s produced %d findings, want 3", path, len(diags))
		}
		checkFixture(t, lint.OnePin, "onepin/good", path)
	}
	// Outside the request layers a function may pin as often as it likes.
	u := universe(t)
	pkg, err := u.CheckDir(filepath.Join("testdata", "onepin/bad"), "repro/internal/fixture")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.RunAnalyzers(u, []*lint.Package{pkg}, []*lint.Analyzer{lint.OnePin})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("got %d findings outside the scope, want 0: %v", len(diags), diags)
	}
}

func TestCtxFlowFixtures(t *testing.T) {
	if diags := checkFixture(t, lint.CtxFlow, "ctxflow/bad", "repro/internal/fixture"); len(diags) == 0 {
		t.Error("bad fixture produced no findings")
	}
	checkFixture(t, lint.CtxFlow, "ctxflow/good", "repro/internal/fixture")
}

func TestGenStampFixtures(t *testing.T) {
	if diags := checkFixture(t, lint.GenStamp, "genstamp/bad", "repro/pkg/wfsim/serve"); len(diags) == 0 {
		t.Error("bad fixture produced no findings")
	}
	checkFixture(t, lint.GenStamp, "genstamp/good", "repro/pkg/wfsim/serve")
	// The same structs under any other import path are out of scope.
	u := universe(t)
	pkg, err := u.CheckDir(filepath.Join("testdata", "genstamp/bad"), "repro/internal/other")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.RunAnalyzers(u, []*lint.Package{pkg}, []*lint.Analyzer{lint.GenStamp})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("got %d findings outside serve, want 0: %v", len(diags), diags)
	}
}

func TestLockScopeFixtures(t *testing.T) {
	if diags := checkFixture(t, lint.LockScope, "lockscope/bad", "repro/internal/scorecache"); len(diags) == 0 {
		t.Error("bad fixture produced no findings")
	}
	checkFixture(t, lint.LockScope, "lockscope/good", "repro/internal/scorecache")
}

// Outside the lock-scoped packages the analyzer stays quiet: lock
// discipline elsewhere is not its contract.
func TestLockScopeScope(t *testing.T) {
	u := universe(t)
	pkg, err := u.CheckDir(filepath.Join("testdata", "lockscope/bad"), "repro/internal/other")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.RunAnalyzers(u, []*lint.Package{pkg}, []*lint.Analyzer{lint.LockScope})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("got %d findings outside the lock scope, want 0: %v", len(diags), diags)
	}
}

func TestErrPathFixtures(t *testing.T) {
	if diags := checkFixture(t, lint.ErrPath, "errpath/bad", "repro/internal/storage"); len(diags) == 0 {
		t.Error("bad fixture produced no findings")
	}
	checkFixture(t, lint.ErrPath, "errpath/good", "repro/internal/storage")
}

// The CFG liveness rule is storage-only; the syntactic discard rules apply
// everywhere. Under a non-storage path the liveness finding disappears and
// the discard findings stay.
func TestErrPathLivenessScope(t *testing.T) {
	u := universe(t)
	pkg, err := u.CheckDir(filepath.Join("testdata", "errpath/bad"), "repro/internal/other")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.RunAnalyzers(u, []*lint.Package{pkg}, []*lint.Analyzer{lint.ErrPath})
	if err != nil {
		t.Fatal(err)
	}
	var discards, liveness int
	for _, d := range diags {
		if strings.Contains(d.Message, "not used on every path") {
			liveness++
		} else {
			discards++
		}
	}
	if liveness != 0 {
		t.Errorf("liveness rule fired outside internal/storage:\n%s", diagLines(diags))
	}
	if discards == 0 {
		t.Error("discard rules did not fire outside internal/storage")
	}
}

func TestHotAllocFixtures(t *testing.T) {
	if diags := checkFixture(t, lint.HotAlloc, "hotalloc/bad", "repro/internal/fixture"); len(diags) == 0 {
		t.Error("bad fixture produced no findings")
	}
	checkFixture(t, lint.HotAlloc, "hotalloc/good", "repro/internal/fixture")
}

// TestSuppression exercises the //wfsimvet:ignore convention: justified
// directives (inline or line-above) suppress, bare or mismatched directives
// do not, and bare directives are themselves reported.
func TestSuppression(t *testing.T) {
	u := universe(t)
	pkg, err := u.CheckDir(filepath.Join("testdata", "suppress"), "repro/internal/search")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.RunAnalyzers(u, []*lint.Package{pkg}, []*lint.Analyzer{lint.SnapshotPin})
	if err != nil {
		t.Fatal(err)
	}
	var suppressed, active, malformed int
	for _, d := range diags {
		switch {
		case d.Analyzer == "wfsimvet" && strings.Contains(d.Message, "malformed"):
			malformed++
		case d.Suppressed:
			suppressed++
			if !strings.Contains(d.Justification, "boot-time read") {
				t.Errorf("suppressed finding lost its justification: %+v", d)
			}
		default:
			active++
		}
	}
	if suppressed != 2 || active != 2 || malformed != 1 {
		t.Errorf("suppressed/active/malformed = %d/%d/%d, want 2/2/1\n%s",
			suppressed, active, malformed, diagLines(diags))
	}
}

// TestSuiteCleanOnRepo is the self-test the CI lint job depends on: the
// full analyzer suite over the real module must report nothing.
func TestSuiteCleanOnRepo(t *testing.T) {
	u := universe(t)
	diags, err := lint.RunAnalyzers(u, u.Targets, lint.All)
	if err != nil {
		t.Fatal(err)
	}
	var active []lint.Diagnostic
	for _, d := range diags {
		if !d.Suppressed {
			active = append(active, d)
		}
	}
	if len(active) != 0 {
		t.Errorf("analyzer suite found %d unsuppressed findings on the repository:\n%s",
			len(active), diagLines(active))
	}
}

func TestByName(t *testing.T) {
	all, err := lint.ByName("")
	if err != nil || len(all) != len(lint.All) {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v", len(all), err)
	}
	two, err := lint.ByName("pairorder, genstamp")
	if err != nil || len(two) != 2 || two[0].Name != "pairorder" || two[1].Name != "genstamp" {
		t.Fatalf("ByName subset = %v, err %v", two, err)
	}
	if _, err := lint.ByName("nope"); err == nil {
		t.Fatal("unknown analyzer accepted")
	}
}

// The fixture loader must reject fixtures that do not typecheck, so a
// broken fixture cannot silently pass as "no findings".
func TestCheckDirRejectsBrokenFixture(t *testing.T) {
	u := universe(t)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "broken.go"), []byte("package fixture\n\nfunc f() int { return \"no\" }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := u.CheckDir(dir, "repro/internal/fixture"); err == nil {
		t.Fatal("CheckDir accepted a fixture with type errors")
	}
}

func diagLines(diags []lint.Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	return b.String()
}

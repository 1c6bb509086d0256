package vetters_test

import (
	"path/filepath"
	"strings"
	"testing"

	"docspanner/internal/vetters"
	"docspanner/internal/vetters/vettest"
)

func testdata(name string) string {
	return filepath.Join("testdata", "src", name)
}

func TestAliasInto(t *testing.T)  { vettest.Run(t, testdata("aliasinto"), vetters.AliasInto) }
func TestPoolEscape(t *testing.T) { vettest.Run(t, testdata("poolescape"), vetters.PoolEscape) }
func TestErrFlush(t *testing.T)   { vettest.Run(t, testdata("errflush"), vetters.ErrFlush) }
func TestCtxFlow(t *testing.T)    { vettest.Run(t, testdata("ctxflow"), vetters.CtxFlow) }
func TestLockShard(t *testing.T)  { vettest.Run(t, testdata("lockshard"), vetters.LockShard) }

func TestByName(t *testing.T) {
	as, err := vetters.ByName("aliasinto, errflush")
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 2 || as[0].Name != "aliasinto" || as[1].Name != "errflush" {
		t.Fatalf("ByName resolved %v", as)
	}
	if _, err := vetters.ByName("nosuch"); err == nil {
		t.Fatal("ByName(nosuch) succeeded; want error naming the valid analyzers")
	} else if !strings.Contains(err.Error(), "lockshard") {
		t.Fatalf("ByName error does not list valid analyzers: %v", err)
	}
}

func TestAnalyzerMetadata(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range vetters.All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v incomplete", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	if len(seen) != 5 {
		t.Fatalf("expected 5 analyzers, have %d", len(seen))
	}
}

// TestSpanvetRepoClean is the self-gate (experiment E20): the entire
// repository must analyze clean under every spanvet analyzer. Loading
// the full dependency graph from source takes a few seconds, so the
// test is skipped in -short mode.
func TestSpanvetRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-repo load in -short mode")
	}
	pkgs, err := vetters.Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading repo: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	for _, pkg := range pkgs {
		for _, e := range pkg.TypeErrors {
			t.Errorf("%s: type error: %v", pkg.ImportPath, e)
		}
		for _, d := range vetters.Run(pkg, vetters.All()) {
			t.Errorf("%s: %s", pkg.ImportPath, d)
		}
	}
}

// TestLoadRejectsUnmatchedPattern checks that a pattern go list cannot
// resolve fails the load (cmd/spanvet exits 2) instead of analyzing an
// empty package clean. That the whole repository loads without error is
// TestSpanvetRepoClean's first check.
func TestLoadRejectsUnmatchedPattern(t *testing.T) {
	_, err := vetters.Load("../..", "./internal/nosuch/")
	if err == nil {
		t.Fatal("Load of a pattern matching no package returned no error")
	}
	if !strings.Contains(err.Error(), "internal/nosuch") {
		t.Errorf("error %q does not name the pattern", err)
	}
}

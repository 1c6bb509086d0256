package docspanner

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestExperimentsNameTheirTests ties EXPERIMENTS.md's sections to code
// that exists. Every Test… or Benchmark… function that a section names
// as a code span must be defined in some _test.go file of the repository
// (bench/, a module of its own, included). The reproductions of the
// survey's claims, F1 and E1–E17, must moreover name at least one Test…
// and one Benchmark… function, all defined outside bench/, so that they
// run in the root module's CI. Renaming a test away from its experiment
// fails here.
func TestExperimentsNameTheirTests(t *testing.T) {
	md, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := experimentSections(string(md))
	root, bench := testFuncs(t, ".", "bench"), testFuncs(t, "bench", "")
	// A name is a code span holding a function name, optionally with a
	// subtest path: `TestX` or `TestX/sub`.
	name := regexp.MustCompile("`((?:Test|Benchmark)[A-Z0-9_]\\w*)(?:/[^`]*)?`")
	claims := map[string]bool{"F1": true}
	for i := 1; i <= 17; i++ {
		claims["E"+strconv.Itoa(i)] = true
	}
	for id := range claims {
		if _, ok := sections[id]; !ok {
			t.Errorf("EXPERIMENTS.md has no %s section", id)
		}
	}
	ids := make([]string, 0, len(sections))
	for id := range sections {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		body := sections[id]
		var tests, benchmarks int
		for _, m := range name.FindAllStringSubmatch(body, -1) {
			fn := m[1]
			switch {
			case claims[id] && !root[fn]:
				t.Errorf("%s names %s, which no _test.go file outside bench/ defines", id, fn)
				continue
			case !root[fn] && !bench[fn]:
				t.Errorf("%s names %s, which no _test.go file defines", id, fn)
				continue
			}
			if strings.HasPrefix(fn, "Test") {
				tests++
			} else {
				benchmarks++
			}
		}
		if claims[id] && (tests == 0 || benchmarks == 0) {
			t.Errorf("%s names %d existing tests and %d existing benchmarks, want at least one of each", id, tests, benchmarks)
		}
	}
}

// experimentSections maps each "## <ID> — title" heading of md to the
// text up to the next level-2 heading.
func experimentSections(md string) map[string]string {
	heading := regexp.MustCompile(`(?m)^## ([A-Z][0-9]+) — `)
	sections := map[string]string{}
	for _, loc := range heading.FindAllStringSubmatchIndex(md, -1) {
		end := len(md)
		if next := strings.Index(md[loc[1]:], "\n## "); next >= 0 {
			end = loc[1] + next
		}
		sections[md[loc[2]:loc[3]]] = md[loc[0]:end]
	}
	return sections
}

// testFuncs returns the names of the top-level Test… and Benchmark…
// functions of every _test.go file under dir, skipping the directory
// skip, testdata and hidden directories.
func testFuncs(t *testing.T, dir, skip string) map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	names := map[string]bool{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == skip || d.Name() == "testdata" || (path != dir && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				if n := fn.Name.Name; strings.HasPrefix(n, "Test") || strings.HasPrefix(n, "Benchmark") {
					names[n] = true
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

package docspanner

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestExperimentsNameTheirTests ties EXPERIMENTS.md's reproductions of
// the survey's claims, F1 and E1–E17, to code that runs in CI: each
// section must name, as a code span, at least one Test… and one
// Benchmark… function, and every function it names so must exist in the
// module's _test.go files outside bench/ (a module of its own). Renaming
// a test away from its experiment fails here.
func TestExperimentsNameTheirTests(t *testing.T) {
	md, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := experimentSections(string(md))
	defined := testFuncs(t)
	// A name is a code span holding a function name, optionally with a
	// subtest path: `TestX` or `TestX/sub`.
	name := regexp.MustCompile("`((?:Test|Benchmark)[A-Z0-9_]\\w*)(?:/[^`]*)?`")
	ids := []string{"F1"}
	for i := 1; i <= 17; i++ {
		ids = append(ids, "E"+strconv.Itoa(i))
	}
	for _, id := range ids {
		body, ok := sections[id]
		if !ok {
			t.Errorf("EXPERIMENTS.md has no %s section", id)
			continue
		}
		var tests, benchmarks int
		for _, m := range name.FindAllStringSubmatch(body, -1) {
			fn := m[1]
			if !defined[fn] {
				t.Errorf("%s names %s, which no _test.go file outside bench/ defines", id, fn)
				continue
			}
			if strings.HasPrefix(fn, "Test") {
				tests++
			} else {
				benchmarks++
			}
		}
		if tests == 0 || benchmarks == 0 {
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
// functions of every _test.go file under the module root, skipping
// bench/, testdata and hidden directories.
func testFuncs(t *testing.T) map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	names := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || d.Name() == "testdata" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
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

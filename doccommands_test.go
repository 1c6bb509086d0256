package docspanner

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestDocCommands checks the go commands in the fenced shell blocks of
// the documents a reader copies commands from against the tree:
//
//   - a `go test` line's -run, -bench and -fuzz patterns must each match
//     a function of the kind the flag selects (-run: Test, Fuzz and
//     Example; -bench: Benchmark; -fuzz: Fuzz) in every package the line
//     names, or in one of them for a `./...` pattern; the pattern '^$',
//     which selects nothing on purpose, is exempt;
//   - a `go run` line must name a main package of the repository that
//     defines, with the flag package, every flag the line passes;
//   - a `curl` line's method and path must match a pattern of spannerd's
//     route table (internal/server/pipeline.go's routes).
//
// It follows `cd` within a block and skips the go commands of a block
// once it leaves the repository; a document must hold at least one go
// command. It reads the sources with go/parser and starts no process.
func TestDocCommands(t *testing.T) {
	routes := serverRoutes(t)
	curls := 0
	for _, doc := range []string{"README.md", "docs/TUTORIAL.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md", "bench/README.md"} {
		md, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		cmds := docCommands(string(md))
		goCmds := 0
		for _, c := range cmds {
			where := doc + ":" + strconv.Itoa(c.line)
			if c.args[0] == "curl" {
				curls++
				checkCurl(t, where, routes, c.args[1:])
				continue
			}
			goCmds++
			switch {
			case c.dir == "":
				t.Logf("%s: runs outside the repository, not checked", where)
			case c.args[1] == "test":
				checkGoTest(t, where, c.dir, c.args[2:])
			default:
				checkGoRun(t, where, c.dir, c.args[2:])
			}
		}
		if goCmds == 0 {
			t.Errorf("%s: no go test or go run line in a fenced block", doc)
		}
	}
	if curls == 0 {
		t.Error("no curl line in a fenced block of any document")
	}
}

// docCommand is one `go test`, `go run` or `curl` command of a fenced
// block: its words, the directory it runs in relative to the repository
// root ("" once its block has left the repository), and the line it
// starts on.
type docCommand struct {
	line int
	dir  string
	args []string
}

// docCommands returns the go test, go run and curl commands of md's
// fenced blocks. A line may carry a "$ " prompt, a trailing comment and
// backslash continuations; commands joined by &&, ||, ;, | or & are
// split, and redirections dropped.
func docCommands(md string) []docCommand {
	var out []docCommand
	lines := strings.Split(md, "\n")
	fenced, dir := false, "."
	for i := 0; i < len(lines); i++ {
		l := strings.TrimSpace(lines[i])
		if strings.HasPrefix(l, "```") || strings.HasPrefix(l, "~~~") {
			fenced, dir = !fenced, "."
			continue
		}
		if !fenced {
			continue
		}
		start := i + 1
		for strings.HasSuffix(l, `\`) && i+1 < len(lines) {
			i++
			l = strings.TrimSuffix(l, `\`) + " " + strings.TrimSpace(lines[i])
		}
		l = strings.TrimPrefix(l, "$ ")
		for _, words := range shellCommands(l) {
			for len(words) > 0 && strings.Contains(words[0], "=") {
				words = words[1:] // an environment assignment
			}
			switch {
			case len(words) == 0:
			case words[0] == "cd":
				if len(words) < 2 || filepath.IsAbs(words[1]) || strings.HasPrefix(words[1], "~") || strings.HasPrefix(words[1], "$") {
					dir = ""
				} else if dir != "" {
					dir = path.Join(dir, words[1])
				}
			case words[0] == "curl",
				len(words) >= 2 && words[0] == "go" && (words[1] == "test" || words[1] == "run"):
				out = append(out, docCommand{start, dir, words})
			}
		}
	}
	return out
}

// shellCommands splits a shell line into the words of its simple
// commands: quotes are removed, a # after a blank starts a comment, and
// a redirection drops its target.
func shellCommands(l string) [][]string {
	var cmds [][]string
	var words []string
	var w strings.Builder
	inWord, redirect := false, false
	endWord := func() {
		if inWord {
			if !redirect {
				words = append(words, w.String())
			}
			redirect = false
		}
		w.Reset()
		inWord = false
	}
	endCmd := func() {
		endWord()
		if len(words) > 0 {
			cmds = append(cmds, words)
		}
		words = nil
	}
	for i := 0; i < len(l); i++ {
		switch c := l[i]; {
		case c == '\'' || c == '"':
			j := strings.IndexByte(l[i+1:], c)
			if j < 0 {
				j = len(l) - i - 1
			}
			w.WriteString(l[i+1 : i+1+j])
			inWord = true
			i += j + 1
		case c == ' ' || c == '\t':
			endWord()
		case c == '#' && !inWord:
			endCmd()
			return cmds
		case c == '&' || c == '|' || c == ';':
			endCmd()
		case c == '>' || c == '<':
			endWord()
			redirect = true
		default:
			w.WriteByte(c)
			inWord = true
		}
	}
	endCmd()
	return cmds
}

// goTestBoolFlags are the flags of go test that take no value.
var goTestBoolFlags = map[string]bool{
	"v": true, "race": true, "short": true, "benchmem": true, "c": true, "json": true,
	"cover": true, "failfast": true, "x": true, "n": true, "a": true, "msan": true, "asan": true,
}

// checkGoTest checks the selection patterns of one go test command run
// in dir.
func checkGoTest(t *testing.T, where, dir string, args []string) {
	t.Helper()
	kinds := map[string][]string{"run": {"Test", "Fuzz", "Example"}, "bench": {"Benchmark"}, "fuzz": {"Fuzz"}}
	type selection struct{ flag, pattern string }
	var sels []selection
	var pkgs []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if !strings.HasPrefix(a, "-") {
			pkgs = append(pkgs, a)
			continue
		}
		name, val, hasVal := strings.Cut(strings.TrimLeft(a, "-"), "=")
		if !hasVal && !goTestBoolFlags[name] && i+1 < len(args) {
			i++
			val = args[i]
		}
		if _, ok := kinds[name]; ok && val != "^$" {
			sels = append(sels, selection{name, val})
		}
	}
	if len(sels) == 0 {
		return
	}
	if len(pkgs) == 0 {
		pkgs = []string{"."}
	}
	for _, p := range pkgs {
		base, all := strings.CutSuffix(p, "...")
		dirs := packageDirs(path.Join(dir, base), all)
		if len(dirs) == 0 {
			t.Errorf("%s: go test names %s, which is no package", where, p)
			continue
		}
		// A ./... pattern needs a match in one of its packages, a plain
		// package in itself.
		funcs := map[string]bool{}
		for _, d := range dirs {
			for fn := range packageTestFuncs(t, d) {
				funcs[fn] = true
			}
		}
		for _, s := range sels {
			top := strings.Split(s.pattern, "/")[0]
			re, err := regexp.Compile(top)
			if err != nil {
				t.Errorf("%s: -%s %q is not a regexp: %v", where, s.flag, s.pattern, err)
				continue
			}
			if !matchesAny(re, funcs, kinds[s.flag]) {
				t.Errorf("%s: -%s %q matches no %s function in %s", where, s.flag, s.pattern, strings.Join(kinds[s.flag], "/"), p)
			}
		}
	}
}

// matchesAny reports whether re matches a function named with one of
// the prefixes.
func matchesAny(re *regexp.Regexp, funcs map[string]bool, prefixes []string) bool {
	for fn := range funcs {
		for _, p := range prefixes {
			if strings.HasPrefix(fn, p) && re.MatchString(fn) {
				return true
			}
		}
	}
	return false
}

// checkGoRun checks one go run command run in dir: its package exists,
// is a main package, and defines every flag the command passes.
func checkGoRun(t *testing.T, where, dir string, args []string) {
	t.Helper()
	for len(args) > 0 && strings.HasPrefix(args[0], "-") {
		args = args[1:] // go run's own flags
	}
	if len(args) == 0 {
		t.Errorf("%s: go run names no package", where)
		return
	}
	pkg := path.Join(dir, args[0])
	flags, isMain := mainFlags(t, pkg)
	if !isMain {
		t.Errorf("%s: go run names %s, which is no main package", where, args[0])
		return
	}
	for _, a := range args[1:] {
		if a == "--" {
			break
		}
		if !strings.HasPrefix(a, "-") || a == "-" {
			continue
		}
		name, _, _ := strings.Cut(strings.TrimLeft(a, "-"), "=")
		if !flags[name] && name != "h" && name != "help" {
			t.Errorf("%s: go run %s passes -%s, which it does not define", where, args[0], name)
		}
	}
}

// packageDirs returns the directories with Go files that a package
// pattern names: root itself, or with all every directory under it,
// skipping testdata and hidden directories.
func packageDirs(root string, all bool) []string {
	var dirs []string
	hasGo := func(d string) bool {
		m, _ := filepath.Glob(filepath.Join(d, "*.go"))
		return len(m) > 0
	}
	if !all {
		if hasGo(root) {
			dirs = append(dirs, root)
		}
		return dirs
	}
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if hasGo(p) {
			dirs = append(dirs, p)
		}
		return nil
	})
	return dirs
}

// packageTestFuncs returns the names of the top-level functions of the
// _test.go files of directory dir.
func packageTestFuncs(t *testing.T, dir string) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	files, _ := filepath.Glob(filepath.Join(dir, "*_test.go"))
	fset := token.NewFileSet()
	for _, f := range files {
		af, err := parser.ParseFile(fset, f, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range af.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				names[fn.Name.Name] = true
			}
		}
	}
	return names
}

// mainFlags returns the flag names the non-test files of directory dir
// define through the flag package or a FlagSet, and whether dir holds a
// main package.
func mainFlags(t *testing.T, dir string) (map[string]bool, bool) {
	t.Helper()
	files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	fset := token.NewFileSet()
	flags, isMain := map[string]bool{}, false
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		af, err := parser.ParseFile(fset, f, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		isMain = isMain || af.Name.Name == "main"
		ast.Inspect(af, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			// flag.String("name", …), fs.StringVar(&v, "name", …), …
			at := -1
			switch m := sel.Sel.Name; {
			case m == "Var" || m == "TextVar" || (strings.HasSuffix(m, "Var") && flagKinds[strings.TrimSuffix(m, "Var")]):
				at = 1
			case flagKinds[m] || m == "Func" || m == "BoolFunc":
				at = 0
			}
			if at >= 0 && at < len(call.Args) {
				if lit, ok := call.Args[at].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if name, err := strconv.Unquote(lit.Value); err == nil {
						flags[name] = true
					}
				}
			}
			return true
		})
	}
	return flags, isMain
}

// flagKinds are the value kinds of the flag package's definers.
var flagKinds = map[string]bool{
	"Bool": true, "Duration": true, "Float64": true, "Int": true, "Int64": true,
	"String": true, "Uint": true, "Uint64": true,
}

// serverRoutes returns the patterns of spannerd's route table, read from
// the composite literal of internal/server/pipeline.go's routes: each
// row's first field, "METHOD /path/{wildcard}".
func serverRoutes(t *testing.T) []string {
	t.Helper()
	af, err := parser.ParseFile(token.NewFileSet(), "internal/server/pipeline.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var patterns []string
	for _, decl := range af.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			if len(vs.Names) != 1 || vs.Names[0].Name != "routes" || len(vs.Values) != 1 {
				continue
			}
			for _, row := range vs.Values[0].(*ast.CompositeLit).Elts {
				lit := row.(*ast.CompositeLit).Elts[0].(*ast.BasicLit)
				p, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				patterns = append(patterns, p)
			}
		}
	}
	if len(patterns) == 0 {
		t.Fatal("internal/server/pipeline.go: no routes table")
	}
	return patterns
}

// curlValueFlags are the curl options the docs use that take a value.
var curlValueFlags = map[string]bool{
	"X": true, "request": true, "d": true, "data": true, "data-binary": true, "data-raw": true,
	"H": true, "header": true, "o": true, "output": true, "w": true, "write-out": true,
}

// checkCurl checks that one curl command's method and path match a
// route pattern. The method is -X's, or POST with a body and GET
// without; the URL is the first word that is no option or option value.
func checkCurl(t *testing.T, where string, routes, args []string) {
	t.Helper()
	method, url, body := "", "", false
	for i := 0; i < len(args); i++ {
		a := args[i]
		if !strings.HasPrefix(a, "-") {
			if url == "" {
				url = a
			}
			continue
		}
		name := strings.TrimLeft(a, "-")
		if m, ok := strings.CutPrefix(a, "-X"); ok && m != "" {
			method = m // -XPOST
			continue
		}
		if !curlValueFlags[name] {
			continue // -s, -N, --fail, …
		}
		if i+1 == len(args) {
			t.Errorf("%s: curl %s has no value", where, a)
			return
		}
		i++
		switch name {
		case "X", "request":
			method = args[i]
		case "d", "data", "data-binary", "data-raw":
			body = true
		}
	}
	if url == "" {
		t.Errorf("%s: curl names no URL", where)
		return
	}
	if method == "" {
		method = "GET"
		if body {
			method = "POST"
		}
	}
	u := strings.TrimPrefix(strings.TrimPrefix(url, "http://"), "https://")
	p := "/"
	if i := strings.IndexByte(u, '/'); i >= 0 {
		p = u[i:]
	}
	p, _, _ = strings.Cut(p, "?")
	for _, r := range routes {
		if routeMatches(r, method, p) {
			return
		}
	}
	t.Errorf("%s: curl %s %s matches no route of internal/server/pipeline.go", where, method, p)
}

// routeMatches reports whether a net/http mux pattern "METHOD /a/{b}"
// serves method on path; a {name} segment matches any one nonempty
// segment. (The route table has no {name...} wildcard.)
func routeMatches(pattern, method, path string) bool {
	m, pat, _ := strings.Cut(pattern, " ")
	ps, segs := strings.Split(pat, "/"), strings.Split(path, "/")
	if m != method || len(ps) != len(segs) {
		return false
	}
	for i, s := range ps {
		if strings.HasPrefix(s, "{") && segs[i] == "" || !strings.HasPrefix(s, "{") && s != segs[i] {
			return false
		}
	}
	return true
}

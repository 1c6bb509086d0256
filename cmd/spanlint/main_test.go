package main

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"docspanner"
)

// TestLintInputCodes drives each diagnostic code through the CLI's input
// syntax, including SP000 for malformed inputs.
func TestLintInputCodes(t *testing.T) {
	cases := []struct {
		input string
		codes []string // want exactly these codes, in order
	}{
		{`!x{a+}=!v{[0-9]+}`, nil},
		{`join(!x{a}b; a!y{b})`, []string{"SP003"}},
		{`join(!x{a}; !x{b})`, []string{"SP003"}},
		{`project(q; !x{a})`, []string{"SP004", "SP004"}},
		{`seleq(x; !x{a+})`, []string{"SP005"}},
		{`seleq(x,y; union(!x{a}; !y{b}))`, []string{"SP005"}},
		{`join(!x{ab}[abc]; [abc]!y{bc})`, []string{"SP003", "SP006"}},
		{`seleq(x,y; !x{a+}b!y{a+})`, []string{"SP007"}},
		{`union(!x{a}; !x{a})`, []string{"SP008"}},
		{`!x{`, []string{"SP000"}},
		{`union(!x{a}; )`, []string{"SP000"}},
		{`project(,; !x{a})`, []string{"SP000"}},
		{`union(!x{a}; !y{b}) trailing`, []string{"SP000"}},
		// Pattern operands may use grouping and classes containing ; and ).
		{`union((ab)+!x{a}; !x{[;)]}a)`, nil},
	}
	for _, tc := range cases {
		t.Run(tc.input, func(t *testing.T) {
			ds := lintInput(tc.input, docspanner.Options{})
			var got []string
			for _, d := range ds {
				got = append(got, d.Code)
			}
			if len(got) != len(tc.codes) {
				t.Fatalf("lintInput(%q) codes = %v, want %v (full: %v)", tc.input, got, tc.codes, ds)
			}
			for i := range got {
				if got[i] != tc.codes[i] {
					t.Fatalf("lintInput(%q) codes = %v, want %v", tc.input, got, tc.codes)
				}
			}
		})
	}
}

// TestLintInputUnsatisfiable covers SP001 through the CLI: pattern-compiled
// spanners are satisfiable by construction, but the difference of a spanner
// with itself is the canonical empty spanner.
func TestLintInputUnsatisfiable(t *testing.T) {
	ds := lintInput(`minus(!x{a+}; !x{a+})`, docspanner.Options{})
	seen := map[string]bool{}
	for _, d := range ds {
		seen[d.Code] = true
	}
	if !seen["SP001"] {
		t.Errorf("want SP001 for a self-difference, got %v", ds)
	}
	// A non-empty difference refutes containment and lints clean of SP001.
	ds = lintInput(`minus(!x{a+}; !x{a})`, docspanner.Options{})
	for _, d := range ds {
		if d.Code == "SP001" {
			t.Errorf("non-empty difference should not be SP001: %v", ds)
		}
	}
}

// TestCodeTable pins the -codes listing: the full table with no args, a
// filtered table for named codes (case-insensitively), and a usage error
// for an unknown code that names the valid ones.
func TestCodeTable(t *testing.T) {
	full, err := codeTable(nil)
	if err != nil {
		t.Fatalf("codeTable(nil): %v", err)
	}
	for i := 1; i <= 10; i++ {
		code := fmt.Sprintf("SP%03d", i)
		if !strings.Contains(full, code) {
			t.Errorf("full table missing %s:\n%s", code, full)
		}
	}

	got, err := codeTable([]string{"sp010", "SP009"})
	if err != nil {
		t.Fatalf("codeTable(sp010, SP009): %v", err)
	}
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "SP010") || !strings.HasPrefix(lines[1], "SP009") {
		t.Fatalf("filtered table should list the requested codes in order, got:\n%s", got)
	}

	_, err = codeTable([]string{"SP099"})
	if err == nil {
		t.Fatal("codeTable(SP099) should fail")
	}
	if msg := err.Error(); !strings.Contains(msg, "SP099") || !strings.Contains(msg, "SP001") || !strings.Contains(msg, "SP010") {
		t.Errorf("error should name the bad code and the valid range: %v", err)
	}
}

// BenchmarkLintCorpus lints the repository's example corpus, as CI's
// spanlint step does (E15 of EXPERIMENTS.md): static analysis costs
// query complexity only, no document is read, and every entry must stay
// lint-clean.
func BenchmarkLintCorpus(b *testing.B) {
	blob, err := os.ReadFile("../../examples/lint/corpus.txt")
	if err != nil {
		b.Fatal(err)
	}
	var inputs []string
	for _, line := range strings.Split(string(blob), "\n") {
		if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
			inputs = append(inputs, line)
		}
	}
	for i := 0; i < b.N; i++ {
		for _, in := range inputs {
			if ds := lintInput(in, docspanner.Options{}); len(ds) != 0 {
				b.Fatalf("%q: %v", in, ds)
			}
		}
	}
}

package refl

import (
	"strings"
	"testing"

	"docspanner/internal/regex"
	"docspanner/internal/spans"
	"docspanner/internal/vset"
)

var fuzzTokens = []string{"a", "b", "(", ")", "|", "*", "?", "!x{", "!y{", "}", "&x", "&y"}

// FuzzReflVsCore decodes the first input into a ref pattern over {a,b}
// with up to two variables (one token per byte) and the second into a
// document: whatever compiles to a reference-bounded refl-spanner with at
// most three reference transitions must evaluate, in both semantics, to
// the relation its core-spanner translation ToCore evaluates to naively
// (the oracle of TestToCoreEquivalence), and Each must yield no tuple
// twice.
func FuzzReflVsCore(f *testing.F) {
	f.Add([]byte{7, 2, 0, 4, 1, 3, 5, 9, 10}, []byte{0, 1, 0, 1})          // !x{(a|b)*}&x
	f.Add([]byte{7, 0, 9, 8, 10, 9, 10, 1}, []byte{0, 0, 0, 1})            // !x{a}!y{&x}&xb
	f.Add([]byte{7, 0, 4, 1, 9, 2, 10, 3, 6}, []byte{1, 1})                // !x{a|b}(&x)?
	f.Add([]byte{2, 7, 0, 9, 4, 1, 3, 8, 0, 4, 1, 9, 11}, []byte{1, 0, 0}) // (!x{a}|b)!y{a|b}&y
	f.Fuzz(func(t *testing.T, pat, text []byte) {
		if len(pat) > 16 || len(text) > 8 {
			return
		}
		var src strings.Builder
		for _, b := range pat {
			src.WriteString(fuzzTokens[int(b)%len(fuzzTokens)])
		}
		node, err := regex.Parse(src.String())
		if err != nil {
			return
		}
		a, err := regex.Compile(node, regex.Options{Alphabet: []byte("ab")})
		if err != nil || !a.HasRefs() || a.NumStates() > 64 {
			return
		}
		s, err := New(a)
		if err != nil || !s.ReferenceBounded() {
			return
		}
		refs := 0
		for _, tr := range s.A.Trim().Refs {
			for _, rs := range tr {
				refs += len(rs)
			}
		}
		if refs > 3 {
			return // ToCore is exponential in the reference transitions
		}
		core, err := s.ToCore()
		if err != nil {
			t.Fatalf("%q: ToCore of a reference-bounded spanner: %v", src.String(), err)
		}
		doc := make([]byte, len(text))
		for i, b := range text {
			doc[i] = "ab"[b%2]
		}
		for _, sem := range []vset.Semantics{vset.Functional, vset.Schemaless} {
			functional := sem == vset.Functional
			if got, want := s.Eval(doc, functional), core.Eval(doc, sem); !got.Equal(want) {
				t.Fatalf("%q on %q (functional %v):\n refl %v\n core %v", src.String(), doc, functional, got, want)
			}
			seen := map[string]bool{}
			s.Each(doc, functional, nil, func(tu spans.Tuple) bool {
				if seen[tu.Key()] {
					t.Fatalf("%q on %q (functional %v): Each yielded %v twice", src.String(), doc, functional, tu)
				}
				seen[tu.Key()] = true
				return true
			})
		}
	})
}

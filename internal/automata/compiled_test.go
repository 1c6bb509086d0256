package automata

import (
	"sort"
	"testing"

	"docspanner/internal/spans"
)

func TestCompiledDEVAMatchesMaps(t *testing.T) {
	d := Determinize(exampleSpanner())
	c := d.Compiled()
	if c.NQ != d.NumStates() || c.Start != d.Start {
		t.Fatalf("compiled shape: NQ=%d Start=%d", c.NQ, c.Start)
	}
	for q := 0; q < c.NQ; q++ {
		for b := 0; b < 256; b++ {
			if got, want := int(c.Step(q, byte(b))), d.Step(q, byte(b)); got != want {
				t.Fatalf("Step(%d, %q) = %d, want %d", q, byte(b), got, want)
			}
		}
		if len(c.MaskEdges[q]) != len(d.Masks[q]) {
			t.Fatalf("state %d: %d mask edges, want %d", q, len(c.MaskEdges[q]), len(d.Masks[q]))
		}
		if !sort.SliceIsSorted(c.MaskEdges[q], func(i, j int) bool {
			return c.MaskEdges[q][i].Mask < c.MaskEdges[q][j].Mask
		}) {
			t.Fatalf("state %d: mask edges not sorted", q)
		}
		for _, me := range c.MaskEdges[q] {
			if int(me.To) != d.Masks[q][me.Mask] {
				t.Fatalf("state %d mask %d: to %d, want %d", q, me.Mask, me.To, d.Masks[q][me.Mask])
			}
		}
	}
	for _, b := range c.Letters {
		row := c.StepsFor(b)
		for q := 0; q < c.NQ; q++ {
			if int(row[q]) != d.Step(q, b) {
				t.Fatalf("StepsFor(%q)[%d] = %d, want %d", b, q, row[q], d.Step(q, b))
			}
		}
	}
	if c.StepsFor('!') != nil {
		t.Error("StepsFor on an unread byte should be nil")
	}
	if d.Compiled() != c {
		t.Error("Compiled built a second compilation")
	}
}

func TestCompiledNFAMatrices(t *testing.T) {
	// (ab)* with an ε-shortcut, so the closure matters.
	n := NewNFA(spans.NewVarSet())
	s1 := n.AddState()
	n.AddLetter(n.Start, 'a', s1)
	n.AddLetter(s1, 'b', n.Start)
	n.SetFinal(n.Start)
	c, err := n.CompiledMatrices()
	if err != nil {
		t.Fatal(err)
	}
	if !c.EmptyAccept {
		t.Error("(ab)* accepts the empty word")
	}
	// Check L_a·L_b reaches the final state from the start, L_a·L_a none.
	ab := c.LetterMatrix('a').Mul(c.LetterMatrix('b'))
	if !ab.Get(n.Start, n.Start) {
		t.Error("ab should loop back to start")
	}
	aa := c.LetterMatrix('a').Mul(c.LetterMatrix('a'))
	for q := 0; q < c.NQ; q++ {
		if aa.Get(n.Start, q) {
			t.Errorf("aa should be dead, reaches %d", q)
		}
	}
	if c.LetterMatrix('z') != c.LetterMatrix('q') {
		t.Error("unknown letters should share the zero matrix")
	}
	if c2, _ := n.CompiledMatrices(); c2 != c {
		t.Error("CompiledMatrices built a second compilation")
	}
}

func compileAllocs(letters int) float64 {
	n := NewNFA(spans.NewVarSet())
	s1 := n.AddState()
	for i := 0; i < letters; i++ {
		n.AddLetter(n.Start, byte('a'+i), s1)
		n.AddLetter(s1, byte('a'+i), n.Start)
	}
	n.SetFinal(n.Start)
	return testing.AllocsPerRun(10, func() {
		if _, err := CompileNFA(n); err != nil {
			panic(err)
		}
	})
}

// CompileNFA must not allocate per alphabet letter: the scratch pair is
// shared and the retained letter matrices come from one arena, so going
// from 2 to 20 letters adds no allocations beyond noise.
func TestCompileNFAAllocsPerLetter(t *testing.T) {
	small, large := compileAllocs(2), compileAllocs(20)
	if large-small > 4 {
		t.Errorf("CompileNFA allocates per letter: %.1f allocs at 2 letters, %.1f at 20", small, large)
	}
}

func TestCompileNFARejectsSpanners(t *testing.T) {
	n := exampleSpanner()
	if _, err := CompileNFA(n); err == nil {
		t.Error("CompileNFA should reject marker automata")
	}
	r := NewNFA(spans.NewVarSet("x"))
	s1 := r.AddState()
	r.AddRef(r.Start, "x", s1)
	r.SetFinal(s1)
	if _, err := CompileNFA(r); err == nil {
		t.Error("CompileNFA should reject reference automata")
	}
}

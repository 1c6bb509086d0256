package automata

import (
	"sort"
	"testing"
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

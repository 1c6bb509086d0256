package spans

import (
	"fmt"
	"math/rand"
	"testing"
)

// The Rows operators against their reference: every operator, run on the
// positional form of random relations and converted back, must return the
// tuples of the corresponding Relation method, in the same order.

// rowsOf is rel in positional form over schema.
func rowsOf(schema VarSet, rel *Relation) *Rows {
	out := NewRows(schema)
	for _, t := range rel.Tuples() {
		out.AppendTuple(t)
	}
	return out
}

func tuplesOf(r *Rows) []Tuple {
	out := make([]Tuple, r.Len())
	for i := range out {
		out[i] = r.Tuple(i)
	}
	return out
}

// sameSequence fails unless got holds exactly want's tuples in want's order.
func sameSequence(t *testing.T, op string, got *Rows, want *Relation) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: no result, want %v", op, want)
	}
	ts := tuplesOf(got)
	ok := len(ts) == want.Len()
	for i := 0; ok && i < len(ts); i++ {
		ok = ts[i].Equal(want.Tuples()[i])
	}
	if !ok {
		t.Fatalf("%s:\n got %v\nwant %v", op, ts, want.Tuples())
	}
}

// choices turns a byte string into the decisions of a generator, so the
// fuzzer steers what the property test draws at random. An exhausted
// string answers 0.
type choices struct {
	data []byte
	i    int
}

func (c *choices) below(n int) int {
	if c.i >= len(c.data) {
		return 0
	}
	c.i++
	return int(c.data[c.i-1]) % n
}

var rowsTestVars = []Var{"a", "b", "c", "d"}

// subset draws a subset of the four test variables, now and then with a
// variable no relation has.
func (c *choices) subset() VarSet {
	var vs []Var
	m := c.below(32)
	for i, v := range rowsTestVars {
		if m&(1<<i) != 0 {
			vs = append(vs, v)
		}
	}
	if m >= 30 {
		vs = append(vs, "nowhere")
	}
	return NewVarSet(vs...)
}

// relation draws a relation of up to six tuples over schema on a document
// of length n: ⊥ about one time in four, empty spans included, repeated
// tuples left for Add to drop. An empty schema yields {} or {()}.
func (c *choices) relation(schema VarSet, n int) *Relation {
	rel := NewRelation()
	for k := c.below(7); k > 0; k-- {
		t := Tuple{}
		for _, v := range schema {
			if c.below(4) == 0 {
				continue
			}
			b := 1 + c.below(n+1)
			t[v] = Span{b, b + c.below(n+2-b)}
		}
		rel.Add(t)
	}
	return rel
}

func checkRowsAgainstRelation(t *testing.T, data []byte) {
	c := &choices{data: data}
	doc := make([]byte, c.below(7))
	for i := range doc {
		doc[i] = "ab"[c.below(2)]
	}
	ls, ms, rs := c.subset().Minus(VarSet{"nowhere"}), c.subset().Minus(VarSet{"nowhere"}), c.subset().Minus(VarSet{"nowhere"})
	l, m, r := c.relation(ls, len(doc)), c.relation(ms, len(doc)), c.relation(rs, len(doc))
	lr, mr, rr := rowsOf(ls, l), rowsOf(ms, m), rowsOf(rs, r)
	ctx := fmt.Sprintf("doc %q\nl%v = %v\nm%v = %v\nr%v = %v\n", doc, ls, l, ms, m, rs, r)

	keep := c.subset()
	sameSequence(t, ctx+"π"+keep.String()+"(l)", lr.Project(keep, nil), l.Project(keep))
	sameSequence(t, ctx+"l ∪ r", lr.Union(rr, nil), l.Union(r))
	z1, z2 := c.subset(), c.subset()
	sameSequence(t, ctx+"ς="+z1.String()+"(l)", lr.SelectEqual(doc, z1, nil), l.SelectEqual(doc, z1))
	lambda := c.subset()
	target := Var("t")
	if len(lambda) > 0 && c.below(2) == 0 {
		target = lambda[0]
	}
	sameSequence(t, fmt.Sprintf("%s⨄%v→%s(l)", ctx, lambda, target), lr.Fuse(lambda, target, nil), l.Fuse(lambda, target))
	sameSequence(t, ctx+"l ⋈ r", lr.Join(rr, nil), l.Join(r))

	// The selections evaluated inside the join: one class, two stacked
	// ones, and the last step of a three-way fold. The classes are drawn
	// freely, so they lie on one side, on both, on a shared variable, or
	// on no variable at all.
	sel := fmt.Sprintf("ς=%v(ς=%v(", z1, z2)
	sameSequence(t, ctx+"ς="+z1.String()+"(l ⋈ r)",
		lr.JoinSelect(rr, doc, []VarSet{z1}, nil), l.Join(r).SelectEqual(doc, z1))
	sameSequence(t, ctx+sel+"l ⋈ r))",
		lr.JoinSelect(rr, doc, []VarSet{z1, z2}, nil), l.Join(r).SelectEqual(doc, z2).SelectEqual(doc, z1))
	sameSequence(t, ctx+sel+"l ⋈ m ⋈ r))",
		lr.Join(mr, nil).JoinSelect(rr, doc, []VarSet{z1, z2}, nil), l.Join(m).Join(r).SelectEqual(doc, z2).SelectEqual(doc, z1))
}

func TestRowsAgainstRelation(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 20000; i++ {
		data := make([]byte, 160)
		rng.Read(data)
		checkRowsAgainstRelation(t, data)
	}
}

func FuzzRowsVsRelation(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		data := make([]byte, 160)
		rng.Read(data)
		f.Add(data)
	}
	f.Add([]byte{})
	f.Fuzz(checkRowsAgainstRelation)
}

// The cases the generator reaches only by luck, spelled out.
func TestRowsEdgeCases(t *testing.T) {
	doc := []byte("abab")
	x, y := VarSet{"x"}, VarSet{"y"}

	// Boolean relations: {} and {()} over the empty schema.
	none, unit := NewRows(nil), rowsOf(nil, NewRelation(Tuple{}))
	some := rowsOf(x, NewRelation(NewTuple("x", S(1, 2)), NewTuple("x", S(2, 3))))
	if got := some.Join(unit, nil); got.Len() != 2 {
		t.Errorf("r ⋈ {()} has %d rows, want 2", got.Len())
	}
	if got := some.Join(none, nil); got.Len() != 0 {
		t.Errorf("r ⋈ {} has %d rows, want 0", got.Len())
	}
	if got := some.Project(nil, nil); got.Len() != 1 || len(got.Tuple(0)) != 0 {
		t.Errorf("π{}(r) = %v, want {()}", tuplesOf(got))
	}
	if got := unit.Union(unit, nil); got.Len() != 1 {
		t.Errorf("{()} ∪ {()} has %d rows, want 1", got.Len())
	}

	// The empty factor equals the empty factor wherever it lies.
	l := rowsOf(x, NewRelation(NewTuple("x", S(1, 1)), NewTuple("x", S(1, 3))))
	r := rowsOf(y, NewRelation(NewTuple("y", S(5, 5)), NewTuple("y", S(3, 5)), Tuple{}))
	got := l.JoinSelect(r, doc, []VarSet{{"x", "y"}}, nil)
	want := NewRelation(NewTuple("x", S(1, 1), "y", S(5, 5)), NewTuple("x", S(1, 3), "y", S(3, 5)))
	sameSequence(t, "ς={x,y}(l ⋈ r)", got, want)

	// ⊥ in a shared column joins with everything, and the rows two pairs
	// agree on come out once.
	xy := VarSet{"x", "y"}
	l = rowsOf(xy, NewRelation(NewTuple("y", S(1, 2)), NewTuple("x", S(2, 3), "y", S(1, 2))))
	r = rowsOf(x, NewRelation(NewTuple("x", S(2, 3)), NewTuple("x", S(3, 4))))
	want = NewRelation(NewTuple("x", S(2, 3), "y", S(1, 2)), NewTuple("x", S(3, 4), "y", S(1, 2)))
	sameSequence(t, "⊥ in a shared column", l.Join(r, nil), want)

	// A target some row assigns outside λ is a malformed fusion, as for Tuple.Fuse.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Fuse onto an assigned target did not panic")
			}
		}()
		l.Fuse(x, "y", nil)
	}()
}

// More rows than a slab or a hash table starts with, and a cancellation
// hook: an operator the hook stops returns nil, and a nil hook is no hook.
func TestRowsLargeAndPolled(t *testing.T) {
	const n = 3000
	lrel, rrel := NewRelation(), NewRelation()
	for i := 1; i <= n; i++ {
		lrel.Add(NewTuple("x", S(i, i+1), "k", S(i%50+1, i%50+1)))
		rrel.Add(NewTuple("y", S(i, i+2), "k", S(i%50+1, i%50+1)))
	}
	l, r := rowsOf(VarSet{"k", "x"}, lrel), rowsOf(VarSet{"k", "y"}, rrel)
	joined := l.Join(r, nil)
	if joined.Len() != n*n/50 {
		t.Fatalf("join has %d rows, want %d", joined.Len(), n*n/50)
	}
	if got := joined.Project(VarSet{"k"}, nil); got.Len() != 50 {
		t.Fatalf("π{k} has %d rows, want 50", got.Len())
	}
	if got := l.Union(l, nil); got.Len() != n {
		t.Fatalf("l ∪ l has %d rows, want %d", got.Len(), n)
	}

	doc := make([]byte, n+2)
	ops := map[string]func(poll func() bool) *Rows{
		"join":    func(poll func() bool) *Rows { return l.Join(r, poll) },
		"project": func(poll func() bool) *Rows { return l.Project(VarSet{"k"}, poll) },
		"union":   func(poll func() bool) *Rows { return l.Union(r, poll) },
		"select":  func(poll func() bool) *Rows { return l.SelectEqual(doc, VarSet{"k", "x"}, poll) },
		"fuse":    func(poll func() bool) *Rows { return l.Fuse(VarSet{"k", "x"}, "z", poll) },
	}
	for name, op := range ops {
		polls := 0
		if got := op(func() bool { polls++; return polls < 2 }); got != nil || polls != 2 {
			t.Errorf("%s: told to stop at the second poll, it returned a relation (%t) after %d polls", name, got != nil, polls)
		}
		if got := op(func() bool { return true }); got == nil {
			t.Errorf("%s: a hook that never stops it stopped it", name)
		}
	}
}

package spans

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"math/bits"
	"slices"
)

// Rows is an (X,D)-relation in positional form: a schema (a canonical
// VarSet) and one flat slab of spans, row i being the len(schema)
// consecutive spans from i·len(schema). A zero span is ⊥ — the variable is
// unassigned in that row, the schemaless reading of Section 2.2 — so a row
// denotes the same tuple as the map that holds its defined columns, and a
// relation over a zero-variable schema is either {} or {()}.
//
// Rows is what the planner's materializing backend evaluates the algebra
// on; Relation, with the same operators as nested loops over map tuples,
// is the reference its operators are tested against. The operators below
// return a new Rows and never modify their operands (a result may share its
// operand when nothing changed). Each polls its cancellation hook — nil
// for none — once every PollEvery rows it reads or emits and returns nil,
// never a partial relation, when the hook says stop. Rows emitted by an
// operator keep the order the Relation method would produce them in, and
// duplicates are removed, first occurrence kept, by the operators that can
// create them: π, ∪, ⨄, and ⋈ when a row has ⊥ in a shared variable.
type Rows struct {
	schema VarSet
	spans  []Span
	n      int
}

// PollEvery is the number of rows between two calls of a cancellation hook.
const PollEvery = 1024

// NewRows returns the empty relation over schema, which must be canonical.
func NewRows(schema VarSet) *Rows { return &Rows{schema: schema} }

// newRowsCap is NewRows with room for n rows.
func newRowsCap(schema VarSet, n int) *Rows {
	return &Rows{schema: schema, spans: make([]Span, 0, n*len(schema))}
}

// Schema returns the variables of the columns, in column order.
func (r *Rows) Schema() VarSet { return r.schema }

// Len returns the number of rows.
func (r *Rows) Len() int { return r.n }

// Row returns row i. The slice aliases the slab; callers must not modify it.
func (r *Rows) Row(i int) []Span {
	k := len(r.schema)
	return r.spans[i*k : (i+1)*k : (i+1)*k]
}

// AppendTuple appends t as a row, without looking for a duplicate: the
// caller knows its tuples distinct. Variables outside the schema are dropped.
func (r *Rows) AppendTuple(t Tuple) {
	for _, v := range r.schema {
		r.spans = append(r.spans, t[v])
	}
	r.n++
}

// Tuple returns row i as a map tuple of its defined columns.
func (r *Rows) Tuple(i int) Tuple {
	t := make(Tuple, len(r.schema))
	for c, s := range r.Row(i) {
		if s.IsDefined() {
			t[r.schema[c]] = s
		}
	}
	return t
}

// CountTotal returns the number of rows that assign every variable of vars.
func (r *Rows) CountTotal(vars VarSet) int {
	cols, ok := r.columns(vars)
	if !ok {
		return 0
	}
	if len(cols) == 0 {
		return r.n
	}
	n := 0
	for i := 0; i < r.n; i++ {
		if definedOn(r.Row(i), cols) {
			n++
		}
	}
	return n
}

// columns returns the positions of vars in the schema; ok is false when
// some variable is not a column.
func (r *Rows) columns(vars VarSet) (cols []int, ok bool) {
	cols = make([]int, 0, len(vars))
	for _, v := range vars {
		c := r.schema.Index(v)
		if c < 0 {
			return nil, false
		}
		cols = append(cols, c)
	}
	return cols, true
}

// columnsIn returns, for every column of from, its position in the
// schema to, a superset of from.
func columnsIn(from, to VarSet) []int {
	cols := make([]int, len(from))
	for c, v := range from {
		cols[c] = to.Index(v)
	}
	return cols
}

func definedOn(row []Span, cols []int) bool {
	for _, c := range cols {
		if !row[c].IsDefined() {
			return false
		}
	}
	return true
}

// agree is the ς= predicate on one row: every column of cols is assigned
// and all of them denote the same factor of doc.
func agree(doc []byte, row []Span, cols []int) bool {
	if len(cols) == 0 {
		return true
	}
	first := row[cols[0]]
	if !first.IsDefined() {
		return false
	}
	for _, c := range cols[1:] {
		s := row[c]
		if !s.IsDefined() || s != first && !bytes.Equal(s.Content(doc), first.Content(doc)) {
			return false
		}
	}
	return true
}

// pacer paces an operator's calls of its cancellation hook.
type pacer struct {
	poll func() bool
	n    uint
}

// step counts one row and reports whether the operator may go on.
func (p *pacer) step() bool {
	p.n++
	return p.n%PollEvery != 0 || p.poll == nil || p.poll()
}

// grow appends one zeroed row to the slab and returns it. The row counts
// only once keep (or n++) accepts it. The slab doubles when it is full:
// append's own growth slows to a quarter once a slice is large, and a
// relation is built by nothing but appending.
func (r *Rows) grow() []Span {
	base, k := len(r.spans), len(r.schema)
	if base+k > cap(r.spans) {
		r.spans = slices.Grow(r.spans, max(cap(r.spans), k, 64))
	}
	r.spans = r.spans[:base+k]
	row := r.spans[base:]
	clear(row)
	return row
}

// drop removes the row grow returned last.
func (r *Rows) drop() { r.spans = r.spans[:len(r.spans)-len(r.schema)] }

// rowSet is the set of the rows of one Rows under construction: an
// open-addressing table of row numbers hashed on the rows' spans.
type rowSet struct {
	rows  *Rows
	slots []int32 // row number + 1; 0 is free
}

// newRowSet returns the set of rows' rows so far — none — sized for n.
func newRowSet(rows *Rows, n int) *rowSet {
	size := 64
	for size < 2*n {
		size *= 2
	}
	return &rowSet{rows: rows, slots: make([]int32, size)}
}

// keep decides on the row grow returned last: a new row is counted, a
// duplicate of an earlier one is dropped.
func (s *rowSet) keep() bool {
	r := s.rows
	row := r.Row(r.n)
	mask := uint64(len(s.slots) - 1)
	i := hashRow(row) & mask
	for ; s.slots[i] != 0; i = (i + 1) & mask {
		if slices.Equal(r.Row(int(s.slots[i]-1)), row) {
			r.drop()
			return false
		}
	}
	r.n++
	s.slots[i] = int32(r.n)
	if 2*r.n > len(s.slots) {
		s.slots = make([]int32, 2*len(s.slots))
		mask = uint64(len(s.slots) - 1)
		for j := 0; j < r.n; j++ {
			i := hashRow(r.Row(j)) & mask
			for s.slots[i] != 0 {
				i = (i + 1) & mask
			}
			s.slots[i] = int32(j + 1)
		}
	}
	return true
}

func mix(h, x uint64) uint64 { return (bits.RotateLeft64(h, 5) ^ x) * 0x517cc1b727220a95 }

func mixSpan(h uint64, s Span) uint64 { return mix(mix(h, uint64(s.Begin)), uint64(s.End)) }

func hashRow(row []Span) uint64 {
	var h uint64
	for _, s := range row {
		h = mixSpan(h, s)
	}
	// The multiplication leaves the low bits, which index the table, the
	// least mixed: fold the high half onto them.
	return h ^ h>>32
}

// Project returns π_keep(r): the columns of r named in keep.
func (r *Rows) Project(keep VarSet, poll func() bool) *Rows {
	schema := r.schema.Intersect(keep)
	if len(schema) == len(r.schema) {
		return r
	}
	out := newRowsCap(schema, r.n)
	cols, _ := r.columns(schema)
	set, p := newRowSet(out, r.n), pacer{poll: poll}
	for i := 0; i < r.n; i++ {
		if !p.step() {
			return nil
		}
		row, orow := r.Row(i), out.grow()
		for oc, c := range cols {
			orow[oc] = row[c]
		}
		set.keep()
	}
	return out
}

// Union returns r ∪ other over the union of the two schemas, a variable
// outside a side's schema being ⊥ in that side's rows.
func (r *Rows) Union(other *Rows, poll func() bool) *Rows {
	out := newRowsCap(r.schema.Union(other.schema), r.n+other.n)
	set, p := newRowSet(out, r.n+other.n), pacer{poll: poll}
	for _, side := range []*Rows{r, other} {
		cols := columnsIn(side.schema, out.schema)
		for i := 0; i < side.n; i++ {
			if !p.step() {
				return nil
			}
			orow := out.grow()
			for c, s := range side.Row(i) {
				orow[cols[c]] = s
			}
			set.keep()
		}
	}
	return out
}

// SelectEqual returns ς=_z(r) on doc: the rows that assign every variable
// of z, all to spans of the same content.
func (r *Rows) SelectEqual(doc []byte, z VarSet, poll func() bool) *Rows {
	out := NewRows(r.schema)
	cols, ok := r.columns(z)
	if !ok {
		return out
	}
	p := pacer{poll: poll}
	for i := 0; i < r.n; i++ {
		if !p.step() {
			return nil
		}
		if row := r.Row(i); agree(doc, row, cols) {
			copy(out.grow(), row)
			out.n++
		}
	}
	return out
}

// Fuse returns ⨄_{lambda→target}(r): the columns of lambda replaced by one
// column target that spans from their least begin to their greatest end
// (⊥ when none of them is assigned). It panics, as Tuple.Fuse does, when
// a row already assigns target outside lambda.
func (r *Rows) Fuse(lambda VarSet, target Var, poll func() bool) *Rows {
	out := newRowsCap(r.schema.Minus(lambda).Union(VarSet{target}), r.n)
	tc := out.schema.Index(target)
	cols := make([]int, len(r.schema)) // position in out; -1 for a fused column
	for c, v := range r.schema {
		cols[c] = -1
		if !lambda.Contains(v) {
			cols[c] = out.schema.Index(v)
		}
	}
	set, p := newRowSet(out, r.n), pacer{poll: poll}
	for i := 0; i < r.n; i++ {
		if !p.step() {
			return nil
		}
		orow := out.grow()
		var fused Span
		for c, s := range r.Row(i) {
			switch {
			case !s.IsDefined():
			case cols[c] == tc:
				panic(fmt.Sprintf("spans.Fuse: target %s already assigned", target))
			case cols[c] >= 0:
				orow[cols[c]] = s
			default:
				if !fused.IsDefined() || s.Begin < fused.Begin {
					fused.Begin = s.Begin
				}
				fused.End = max(fused.End, s.End)
			}
		}
		orow[tc] = fused
		set.keep()
	}
	return out
}

// Join returns the natural join r ⋈ other.
func (r *Rows) Join(other *Rows, poll func() bool) *Rows {
	return r.JoinSelect(other, nil, nil, poll)
}

// EquiJoinKey reports whether JoinSelect, joining relations over the
// schemas l and r, makes the selection class z part of its hash key, and
// then names the variable of either side whose content it keys on: z must
// have a variable on each side and none that both sides share (a shared
// variable takes its value from whichever side assigns it, so neither
// side alone decides the selection).
func EquiJoinKey(l, r, z VarSet) (lv, rv Var, ok bool) {
	zl, zr := z.Intersect(l), z.Intersect(r)
	if len(zl) == 0 || len(zr) == 0 || len(zl.Intersect(zr)) > 0 {
		return "", "", false
	}
	return zl[0], zr[0], true
}

// joinSide is what JoinSelect needs to know of one operand.
type joinSide struct {
	shared []int   // the columns of the shared variables, in one order on both sides
	pre    [][]int // per class no variable of which is shared: its columns on this side
	key    []int   // per class EquiJoinKey accepts: the column whose content is keyed
}

// passes reports whether row can contribute to the result: a row that
// fails a class on the columns only its side supplies fails it joined.
func (s *joinSide) passes(doc []byte, row []Span) bool {
	for _, cols := range s.pre {
		if !agree(doc, row, cols) {
			return false
		}
	}
	return true
}

// joinSeed seeds the content hashes of JoinSelect. No result depends on it:
// hash-equal rows are compared before they are joined.
var joinSeed = maphash.MakeSeed()

// contentHash hashes the factor contents row contributes to the key.
func (s *joinSide) contentHash(doc []byte, row []Span) uint64 {
	var h uint64
	for _, c := range s.key {
		h = mix(h, maphash.Bytes(joinSeed, row[c].Content(doc)))
	}
	return h
}

// sharedMask returns the set of the shared columns (numbered by position
// in s.shared) that row assigns. Shared columns past the 64th have no bit
// and so are never part of a hash key; like all of them they are compared
// when a pair of rows is joined.
func (s *joinSide) sharedMask(row []Span) uint64 {
	var m uint64
	for i, c := range s.shared[:min(len(s.shared), 64)] {
		if row[c].IsDefined() {
			m |= 1 << i
		}
	}
	return m
}

// keyHash extends a content hash by row's spans in the shared columns of mask.
func (s *joinSide) keyHash(h uint64, row []Span, mask uint64) uint64 {
	for ; mask != 0; mask &= mask - 1 {
		h = mixSpan(h, row[s.shared[bits.TrailingZeros64(mask)]])
	}
	return h
}

// totalOn reports whether every row assigns every column of cols.
func (r *Rows) totalOn(cols []int) bool {
	for i := 0; len(cols) > 0 && i < r.n; i++ {
		if !definedOn(r.Row(i), cols) {
			return false
		}
	}
	return true
}

// joinPart is the build side's rows that assign the same set of shared
// columns, in row order, with one hash table per set of key columns a
// probing row asked for.
type joinPart struct {
	mask    uint64
	rows    []int32
	content []uint64 // contentHash of each row
	tables  map[uint64]*joinTable
}

// joinTable chains the positions of a joinPart's rows by key hash, every
// chain in ascending order.
type joinTable struct {
	head map[uint64]int32
	next []int32 // -1 ends a chain
}

func (p *joinPart) table(keyMask uint64, r *Rows, side *joinSide) *joinTable {
	if t := p.tables[keyMask]; t != nil {
		return t
	}
	t := &joinTable{head: make(map[uint64]int32, len(p.rows)), next: make([]int32, len(p.rows))}
	for pos := len(p.rows) - 1; pos >= 0; pos-- {
		h := side.keyHash(p.content[pos], r.Row(int(p.rows[pos])), keyMask)
		if nx, ok := t.head[h]; ok {
			t.next[pos] = nx
		} else {
			t.next[pos] = -1
		}
		t.head[h] = int32(pos)
	}
	if p.tables == nil {
		p.tables = map[uint64]*joinTable{}
	}
	p.tables[keyMask] = t
	return t
}

// JoinSelect returns ς=_{Z1}(…ς=_{Zk}(r ⋈ other)…) on doc for the classes
// Z1…Zk, without building r ⋈ other: a hash join whose key is the spans of
// the shared columns and, for every class EquiJoinKey accepts, the content
// of one of the class's columns on either side — so the candidates of a row
// are the rows it joins with and agrees with, not the other relation. A
// class no side decides alone is checked on the joined rows only. Every
// emitted row is checked against the full predicate of every class, so the
// key prunes and never decides.
//
// Two rows join when they agree on every shared variable both assign
// (Tuple.Compatible): other's rows are partitioned by the shared columns
// they assign, and a row of r probes each part on the columns both
// assign — a ⊥ in a shared variable joins with everything. Rows come out
// r-major, other's matches in other's order, as the nested loop has them.
func (r *Rows) JoinSelect(other *Rows, doc []byte, classes []VarSet, poll func() bool) *Rows {
	out := NewRows(r.schema.Union(other.schema))
	lcol, rcol := columnsIn(r.schema, out.schema), columnsIn(other.schema, out.schema)
	var left, right joinSide
	for c, v := range r.schema {
		if oc := other.schema.Index(v); oc >= 0 {
			left.shared, right.shared = append(left.shared, c), append(right.shared, oc)
		}
	}
	eq := make([][]int, len(classes)) // the classes' columns in a joined row
	for i, z := range classes {
		var ok bool
		if eq[i], ok = out.columns(z); !ok {
			return out // no row assigns a variable neither side has
		}
		zl, zr := z.Intersect(r.schema), z.Intersect(other.schema)
		if len(zl.Intersect(zr)) > 0 {
			continue
		}
		lcols, _ := r.columns(zl)
		rcols, _ := other.columns(zr)
		left.pre, right.pre = append(left.pre, lcols), append(right.pre, rcols)
		if _, _, keyed := EquiJoinKey(r.schema, other.schema, z); keyed {
			left.key, right.key = append(left.key, lcols[0]), append(right.key, rcols[0])
		}
	}
	// With ⊥ in a shared column two pairs of rows can join to the same row.
	var set *rowSet
	if !r.totalOn(left.shared) || !other.totalOn(right.shared) {
		set = newRowSet(out, 0)
	}
	p := pacer{poll: poll}

	var parts []*joinPart
	byMask := map[uint64]*joinPart{}
	for j := 0; j < other.n; j++ {
		if !p.step() {
			return nil
		}
		row := other.Row(j)
		if !right.passes(doc, row) {
			continue
		}
		m := right.sharedMask(row)
		part := byMask[m]
		if part == nil {
			part = &joinPart{mask: m}
			byMask[m] = part
			parts = append(parts, part)
		}
		part.rows = append(part.rows, int32(j))
		part.content = append(part.content, right.contentHash(doc, row))
	}

	var matches []int32
	for i := 0; i < r.n; i++ {
		if !p.step() {
			return nil
		}
		lrow := r.Row(i)
		if !left.passes(doc, lrow) {
			continue
		}
		lmask, lhash := left.sharedMask(lrow), left.contentHash(doc, lrow)
		matches = matches[:0]
		for _, part := range parts {
			keyMask := lmask & part.mask
			t := part.table(keyMask, other, &right)
			pos, ok := t.head[left.keyHash(lhash, lrow, keyMask)]
			for ; ok && pos >= 0; pos = t.next[pos] {
				matches = append(matches, part.rows[pos])
			}
		}
		if len(parts) > 1 {
			slices.Sort(matches)
		}
	candidates:
		for _, j := range matches {
			if !p.step() {
				return nil
			}
			orow := out.grow()
			for c, s := range lrow {
				orow[lcol[c]] = s
			}
			for c, s := range other.Row(int(j)) {
				switch o := &orow[rcol[c]]; {
				case !o.IsDefined():
					*o = s
				case s.IsDefined() && s != *o:
					out.drop()
					continue candidates
				}
			}
			for _, cols := range eq {
				if !agree(doc, orow, cols) {
					out.drop()
					continue candidates
				}
			}
			if set == nil {
				out.n++
			} else {
				set.keep()
			}
		}
	}
	return out
}

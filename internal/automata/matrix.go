package automata

import "math/bits"

// BoolMatrix is a square Boolean matrix over automaton states, stored as
// bitset rows. M[p][q] = 1 encodes "state q is reachable from state p by
// reading the string at hand" — the classical tool for running an NFA over
// an SLP-compressed string (Section 4.2 of the survey; cf. Lohrey's survey
// on SLP algorithmics).
//
// The words-per-row width is cached in the struct so the kernels below
// run on raw slices without re-deriving it per access. A BoolMatrix is
// safe for concurrent reads once fully built; mutation (Set, the *Into
// kernels) requires exclusive access.
type BoolMatrix struct {
	N    int
	w    int      // cached ceil(N/64): words per row
	rows []uint64 // N rows of w words each
}

// NewBoolMatrix returns the N×N all-zero matrix.
func NewBoolMatrix(n int) *BoolMatrix {
	w := (n + 63) / 64
	return &BoolMatrix{N: n, w: w, rows: make([]uint64, n*w)}
}

// MatrixView returns the N×N matrix whose rows are the first N·⌈N/64⌉
// words of rows, which the caller owns: Set and the *Into kernels write
// through to them. Views let a caller keep several matrices in one
// allocation; the views it makes must not overlap.
func MatrixView(n int, rows []uint64) BoolMatrix {
	w := (n + 63) / 64
	return BoolMatrix{N: n, w: w, rows: rows[: n*w : n*w]}
}

// IdentityMatrix returns the N×N identity.
func IdentityMatrix(n int) *BoolMatrix {
	m := NewBoolMatrix(n)
	for i := 0; i < n; i++ {
		m.Set(i, i)
	}
	return m
}

// Words returns the number of 64-bit words per row.
func (m *BoolMatrix) Words() int { return m.w }

// Set sets entry (p,q) to 1.
func (m *BoolMatrix) Set(p, q int) {
	m.rows[p*m.w+q/64] |= 1 << uint(q%64)
}

// Get returns entry (p,q).
func (m *BoolMatrix) Get(p, q int) bool {
	return m.rows[p*m.w+q/64]&(1<<uint(q%64)) != 0
}

// Row returns the bitset row of state p (shared storage).
func (m *BoolMatrix) Row(p int) []uint64 {
	return m.rows[p*m.w : (p+1)*m.w]
}

// Mul returns the Boolean matrix product m·other: (m·o)[p][q] = 1 iff
// there is an r with m[p][r] = o[r][q] = 1. Runs in O(N³/64) via word-wise
// row OR-ing.
func (m *BoolMatrix) Mul(other *BoolMatrix) *BoolMatrix {
	return NewBoolMatrix(m.N).MulInto(m, other)
}

// aliases reports whether two matrices share row storage — the aliasing
// the *Into kernels must reject, since they clear out before reading the
// operands. Head-pointer equality is the exact test here: matrices never
// share partial storage, and the views of one slab (MatrixView) never
// overlap.
func aliases(a, b *BoolMatrix) bool {
	return a == b || (len(a.rows) > 0 && len(b.rows) > 0 && &a.rows[0] == &b.rows[0])
}

// MulInto computes the Boolean product a·b into out, reusing out's
// storage (out must be N×N like a and b; it is cleared first and must
// not alias a or b — aliasing panics, because the kernel clears out
// before reading the operands). Returns out.
func (out *BoolMatrix) MulInto(a, b *BoolMatrix) *BoolMatrix {
	if aliases(out, a) || aliases(out, b) {
		panic("automata: MulInto: out aliases an operand")
	}
	return out.mulSparse(a, b)
}

// mulSparse is the set-bit-scanning product kernel: scan each set bit r
// of a's row p and OR b's contiguous row r into out's row p — O(N·k·w)
// words for k set bits per row, the sparse-friendly kernel.
func (out *BoolMatrix) mulSparse(a, b *BoolMatrix) *BoolMatrix {
	w := out.w
	clear(out.rows)
	for p := 0; p < a.N; p++ {
		src := a.rows[p*w : (p+1)*w]
		dst := out.rows[p*w : (p+1)*w]
		for wi, word := range src {
			base := wi * 64
			for word != 0 {
				r := base + bits.TrailingZeros64(word)
				word &= word - 1
				orow := b.rows[r*w : (r+1)*w : (r+1)*w]
				for k := range dst {
					dst[k] |= orow[k]
				}
			}
		}
	}
	return out
}

// ApplyRight returns the column image m·v: out[p] = 1 iff ∃q: m[p][q] ∧ v[q].
// This propagates "can reach acceptance" vectors backwards.
func (m *BoolMatrix) ApplyRight(v []uint64) []uint64 {
	return m.ApplyRightInto(make([]uint64, m.w), v)
}

// ApplyRightInto computes m·v into the scratch vector dst (length ≥
// Words(); overwritten; must not alias v — aliasing panics) and
// returns dst[:Words()]. Each row costs w word ANDs and no
// data-dependent branch: the row's hits are ORed together and bit p is
// set from whether any is nonzero. Orders up to 64 (one word per row,
// the compressed walk's usual case) take a loop without per-row
// slicing, which cuts the kernel's cost there to about a third.
func (m *BoolMatrix) ApplyRightInto(dst, v []uint64) []uint64 {
	w := m.w
	dst = dst[:w]
	if w > 0 && len(v) > 0 && &dst[0] == &v[0] {
		panic("automata: ApplyRightInto: dst aliases v")
	}
	v = v[:w]
	if w == 1 {
		v0 := v[0]
		var hits uint64
		for p, x := range m.rows {
			t := x & v0
			hits |= (t | -t) >> 63 << uint(p&63)
		}
		dst[0] = hits
		return dst
	}
	rows := m.rows
	for j := range dst {
		var hits uint64
		end := min(m.N, 64*j+64)
		for p := 64 * j; p < end; p++ {
			row := rows[p*w : p*w+w]
			var t uint64
			for k, x := range row {
				t |= x & v[k]
			}
			hits |= (t | -t) >> 63 << uint(p&63)
		}
		dst[j] = hits
	}
	return dst
}

// Equal reports entry-wise equality.
func (m *BoolMatrix) Equal(other *BoolMatrix) bool {
	if m.N != other.N {
		return false
	}
	for i := range m.rows {
		if m.rows[i] != other.rows[i] {
			return false
		}
	}
	return true
}

// BitGet reads bit q of a bitset vector.
func BitGet(v []uint64, q int) bool { return v[q/64]&(1<<uint(q%64)) != 0 }

// BitSet sets bit q of a bitset vector.
func BitSet(v []uint64, q int) { v[q/64] |= 1 << uint(q%64) }

// NewBitVec returns an all-zero bitset vector for n states.
func NewBitVec(n int) []uint64 { return make([]uint64, (n+63)/64) }

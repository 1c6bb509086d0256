package automata

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randomMatrix(n int, rng *rand.Rand, density float64) *BoolMatrix {
	m := NewBoolMatrix(n)
	for p := 0; p < n; p++ {
		for q := 0; q < n; q++ {
			if rng.Float64() < density {
				m.Set(p, q)
			}
		}
	}
	return m
}

func naiveMul(a, b *BoolMatrix) *BoolMatrix {
	out := NewBoolMatrix(a.N)
	for p := 0; p < a.N; p++ {
		for r := 0; r < a.N; r++ {
			if !a.Get(p, r) {
				continue
			}
			for q := 0; q < a.N; q++ {
				if b.Get(r, q) {
					out.Set(p, q)
				}
			}
		}
	}
	return out
}

func TestBoolMatrixSetGet(t *testing.T) {
	m := NewBoolMatrix(70) // spans multiple words per row
	m.Set(0, 69)
	m.Set(69, 0)
	if !m.Get(0, 69) || !m.Get(69, 0) || m.Get(0, 0) {
		t.Error("Set/Get wrong")
	}
}

func TestBoolMatrixMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// Word-boundary widths (0, 1, 63, 64, 65) and general sizes.
	for _, n := range []int{0, 1, 3, 17, 63, 64, 65, 100} {
		a := randomMatrix(n, rng, 0.2)
		b := randomMatrix(n, rng, 0.2)
		want := naiveMul(a, b)
		if !a.Mul(b).Equal(want) {
			t.Errorf("Mul mismatch at n=%d", n)
		}
		if !NewBoolMatrix(n).MulInto(a, b).Equal(want) {
			t.Errorf("MulInto mismatch at n=%d", n)
		}
	}
}

func TestBoolMatrixIdentityIdempotent(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65} {
		id := IdentityMatrix(n)
		if !id.Mul(id).Equal(id) {
			t.Errorf("I·I ≠ I at n=%d", n)
		}
	}
}

// naiveApplyRight is m·v by definition: bit p is set iff some q has
// m[p][q] and v[q].
func naiveApplyRight(m *BoolMatrix, v []uint64) []uint64 {
	out := NewBitVec(m.N)
	for p := 0; p < m.N; p++ {
		for q := 0; q < m.N; q++ {
			if m.Get(p, q) && BitGet(v, q) {
				BitSet(out, p)
				break
			}
		}
	}
	return out
}

// TestApplyIntoMatchesAlloc pins the pullback kernel, allocating and
// into a reused scratch vector, to its definition at word-boundary
// orders, several densities, and the empty and full vectors.
func TestApplyIntoMatchesAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 12, 36, 63, 64, 65, 130} {
		for _, density := range []float64{0, 0.05, 0.3, 1} {
			m := randomMatrix(n, rng, density)
			empty, full, some := NewBitVec(n), NewBitVec(n), NewBitVec(n)
			for q := 0; q < n; q++ {
				BitSet(full, q)
				if rng.Intn(3) == 0 {
					BitSet(some, q)
				}
			}
			scratch := make([]uint64, m.Words())
			for _, v := range [][]uint64{empty, full, some} {
				want := naiveApplyRight(m, v)
				if got := m.ApplyRight(v); !vecEqual(got, want) {
					t.Errorf("ApplyRight mismatch at n=%d density=%v v=%b", n, density, v)
				}
				for i := range scratch {
					scratch[i] = ^uint64(0) // the kernel must overwrite dst
				}
				if got := m.ApplyRightInto(scratch, v); !vecEqual(got, want) {
					t.Errorf("ApplyRightInto mismatch at n=%d density=%v v=%b", n, density, v)
				}
			}
		}
	}
}

func vecEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestBoolMatrixIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randomMatrix(33, rng, 0.3)
	id := IdentityMatrix(33)
	if !m.Mul(id).Equal(m) || !id.Mul(m).Equal(m) {
		t.Error("identity law fails")
	}
}

func TestBoolMatrixAssociativity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20
		a := randomMatrix(n, rng, 0.15)
		b := randomMatrix(n, rng, 0.15)
		c := randomMatrix(n, rng, 0.15)
		return a.Mul(b).Mul(c).Equal(a.Mul(b.Mul(c)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestApplyRight(t *testing.T) {
	m := NewBoolMatrix(5)
	m.Set(0, 2)
	m.Set(2, 4)
	m.Set(3, 1)

	acc := NewBitVec(5)
	BitSet(acc, 4)
	right := m.ApplyRight(acc) // who reaches 4? state 2.
	if !BitGet(right, 2) || BitGet(right, 0) || BitGet(right, 3) {
		t.Errorf("ApplyRight = %b", right)
	}
}

// TestMatrixViewWritesThrough keeps two matrices in one slab: the
// product fills the first view in place, leaves the second untouched,
// and the views do not count as aliases of each other.
func TestMatrixViewWritesThrough(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{1, 36, 65} {
		a := randomMatrix(n, rng, 0.2)
		b := randomMatrix(n, rng, 0.2)
		mw := n * ((n + 63) / 64)
		slab := make([]uint64, 2*mw)
		x, y := MatrixView(n, slab[:mw]), MatrixView(n, slab[mw:])
		x.MulInto(a, b)
		if whole := MatrixView(n, slab); !x.Equal(naiveMul(a, b)) || !whole.Equal(&x) {
			t.Errorf("MulInto into a view mismatch at n=%d", n)
		}
		if !y.Equal(NewBoolMatrix(n)) {
			t.Errorf("MulInto into the first view wrote into the second at n=%d", n)
		}
		y.MulInto(&x, b)
		if !y.Equal(naiveMul(&x, b)) {
			t.Errorf("MulInto from a view into its neighbour mismatch at n=%d", n)
		}
	}
}

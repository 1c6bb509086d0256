package automata

import (
	"math/rand"
	"testing"
)

// The blocked kernels must be bit-identical to the naive reference at
// every word-boundary width, regardless of the dispatch cutovers.
func TestBlockedKernelsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, n := range []int{0, 1, 63, 64, 65, 100, 128, 200, 257} {
		for _, density := range []float64{0.02, 0.2, 0.7} {
			a := randomMatrix(n, rng, density)
			b := randomMatrix(n, rng, density)
			wantMul := naiveMul(a, b)
			if !NewBoolMatrix(n).mulFourRussians(a, b).Equal(wantMul) {
				t.Errorf("mulFourRussians mismatch at n=%d density=%v", n, density)
			}
			if !NewBoolMatrix(n).mulSparse(a, b).Equal(wantMul) {
				t.Errorf("mulSparse mismatch at n=%d density=%v", n, density)
			}
			// The public dispatcher agrees with the reference no matter
			// which kernel the size/density heuristics pick.
			if !NewBoolMatrix(n).MulInto(a, b).Equal(wantMul) {
				t.Errorf("MulInto mismatch at n=%d density=%v", n, density)
			}
		}
	}
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: aliasing did not panic", name)
		}
	}()
	f()
}

func TestIntoKernelsPanicOnAliasing(t *testing.T) {
	for _, n := range []int{1, 65} {
		rng := rand.New(rand.NewSource(int64(n)))
		a := randomMatrix(n, rng, 0.3)
		b := randomMatrix(n, rng, 0.3)
		mustPanic(t, "MulInto(out=a)", func() { a.MulInto(a, b) })
		mustPanic(t, "MulInto(out=b)", func() { b.MulInto(a, b) })
		v := make([]uint64, a.Words())
		mustPanic(t, "ApplyRightInto(dst=v)", func() { a.ApplyRightInto(v, v) })
		// A shared backing array counts as aliasing even across distinct
		// headers.
		shared := &BoolMatrix{N: a.N, w: a.w, rows: a.rows[:len(a.rows):len(a.rows)]}
		mustPanic(t, "MulInto(shared rows)", func() { shared.MulInto(a, b) })
	}
	// N=0 matrices share no storage; the kernels must accept them.
	z := NewBoolMatrix(0)
	z.MulInto(NewBoolMatrix(0), NewBoolMatrix(0))
}

func benchPair(n int, density float64) (a, b *BoolMatrix) {
	rng := rand.New(rand.NewSource(1))
	return randomMatrix(n, rng, density), randomMatrix(n, rng, density)
}

func BenchmarkMulInto(b *testing.B) {
	for _, n := range []int{16, 64, 256, 1024} {
		for _, density := range []float64{0.05, 0.5} {
			x, y := benchPair(n, density)
			out := NewBoolMatrix(n)
			name := benchName(n, density)
			b.Run("dispatch/"+name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					out.MulInto(x, y)
				}
			})
			b.Run("sparse/"+name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					out.mulSparse(x, y)
				}
			})
			b.Run("fourrussians/"+name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					out.mulFourRussians(x, y)
				}
			})
		}
	}
}

func BenchmarkApplyRightInto(b *testing.B) {
	for _, n := range []int{12, 36, 64, 256} {
		x, _ := benchPair(n, 0.3)
		v := NewBitVec(n)
		for q := 0; q < n; q += 3 {
			BitSet(v, q)
		}
		dst := make([]uint64, x.Words())
		b.Run(benchName(n, 0.3), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				x.ApplyRightInto(dst, v)
			}
		})
	}
}

func benchName(n int, density float64) string {
	d := "sparse"
	if density >= 0.5 {
		d = "dense"
	}
	return "N=" + itoa(n) + "/" + d
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

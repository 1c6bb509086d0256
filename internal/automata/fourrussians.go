package automata

import (
	"math/bits"
	"sync"
)

// The blocked Boolean matrix product. The sparse kernel in matrix.go
// scans set bits one at a time; this kernel trades a per-block table
// build for word-parallel row combination (the "Four Russians" method),
// which is what makes the matrix products behind compressed evaluation
// (Section 4.2 of the survey) run at memory speed once the automata get
// large or dense. The complexity analysis follows
// Arlazarov–Dinic–Kronrod–Faradžev: with 8-row blocks the product costs
// O(N²·w/8) word operations plus O(32·N·w) for the tables, against
// O(pop(a)·w) for the sparse scan — so MulInto in matrix.go switches
// kernels on size and population count.

const (
	// frMinN is the smallest matrix order at which the Four-Russians
	// product can beat the sparse scan: below it, building 256-entry
	// tables per 8-row block costs more than the whole scalar product.
	frMinN = 128
	// frDensityDen is the density denominator of the product dispatch:
	// the blocked product takes over when more than 1/frDensityDen of
	// all N² entries are set. The sparse scan pays one row-OR per set
	// bit while the blocked product pays one per nonzero 8-bit chunk
	// (at most N²/8 of them), so the measured crossover sits near
	// one-quarter density (BenchmarkMulInto).
	frDensityDen = 4
)

// wordPool recycles the per-call scratch of the blocked product (the
// 256-entry combination tables), keeping the hot
// evaluation loops allocation-free. Buffers are handed back unzeroed;
// every consumer fully overwrites what it reads.
var wordPool sync.Pool // *[]uint64

func getWords(n int) []uint64 {
	if v := wordPool.Get(); v != nil {
		if s := *(v.(*[]uint64)); cap(s) >= n {
			return s[:n]
		}
	}
	return make([]uint64, n)
}

func putWords(s []uint64) {
	wordPool.Put(&s)
}

// popCount returns the number of set bits of the whole matrix — the
// density input of the kernel dispatch. O(N·w/…) word popcounts; noise
// next to any product.
func (m *BoolMatrix) popCount() int {
	n := 0
	for _, word := range m.rows {
		n += bits.OnesCount64(word)
	}
	return n
}

// mulFourRussians computes a·b into out with the Four-Russians blocked
// product: for each 8-row block of b it builds the 256 possible OR
// combinations of those rows in one doubling pass, then folds each row of
// a block by block, indexing the table with the row's 8-bit chunk. Rows
// of the product are only touched for nonzero chunks, so the kernel
// degrades gracefully on sparse inputs too. out must not alias a or b
// (enforced by the MulInto dispatcher).
func (out *BoolMatrix) mulFourRussians(a, b *BoolMatrix) *BoolMatrix {
	w := out.w
	n := a.N
	clear(out.rows)
	if n == 0 || w == 0 {
		return out
	}
	nblk := (n + 7) / 8
	tbl := getWords(256 * w)
	for blk := 0; blk < nblk; blk++ {
		r0 := blk * 8
		nr := 8
		if n-r0 < nr {
			nr = n - r0
		}
		// tbl[m] = OR of b's rows r0+i over the set bits i of m, built
		// incrementally: each entry extends the entry without its lowest
		// bit by one row OR. Bits ≥ nr (last block only) never occur in a
		// chunk because a's padding bits are zero; their entries just
		// copy the lower entry so the table stays well defined.
		clear(tbl[:w])
		for m := 1; m < 256; m++ {
			dst := tbl[m*w : m*w+w : m*w+w]
			src := tbl[(m&(m-1))*w : (m&(m-1))*w+w : (m&(m-1))*w+w]
			i := bits.TrailingZeros32(uint32(m))
			if i >= nr {
				copy(dst, src)
				continue
			}
			row := b.rows[(r0+i)*w : (r0+i+1)*w : (r0+i+1)*w]
			for k := range dst {
				dst[k] = src[k] | row[k]
			}
		}
		// Fold the block's chunk of every row of a. r0 is a multiple of
		// 8, so the chunk never straddles a word boundary.
		wi := r0 >> 6
		shift := uint(r0 & 63)
		for p := 0; p < n; p++ {
			ch := (a.rows[p*w+wi] >> shift) & 0xff
			if ch == 0 {
				continue
			}
			src := tbl[int(ch)*w : int(ch)*w+w : int(ch)*w+w]
			dst := out.rows[p*w : p*w+w : p*w+w]
			for k := range dst {
				dst[k] |= src[k]
			}
		}
	}
	putWords(tbl)
	return out
}

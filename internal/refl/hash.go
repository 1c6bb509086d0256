package refl

import "math/bits"

// Rolling (polynomial) hashing over the document: the "standard string
// data-structure" that improves refl ModelChecking from quadratic to
// linear time (Section 3.3 of the survey). Two independent hash functions
// modulo the Mersenne prime 2^61 − 1 make accidental collisions
// negligible; FactorEq additionally verifies bytes when paranoid mode is
// on (used in tests).

const hashMod = (1 << 61) - 1

func mulmod(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	// Reduce modulo 2^61-1: value = hi·2^64 + lo, and 2^64 ≡ 2^3.
	res := (lo & hashMod) + (lo >> 61) + ((hi << 3) & hashMod) + (hi >> 58)
	res = (res & hashMod) + (res >> 61)
	if res >= hashMod {
		res -= hashMod
	}
	return res
}

func addmod(a, b uint64) uint64 {
	s := a + b
	if s >= hashMod {
		s -= hashMod
	}
	return s
}

func submod(a, b uint64) uint64 {
	if a >= b {
		return a - b
	}
	return a + hashMod - b
}

// naiveEq is the O(l)-per-query baseline.
type naiveEq []byte

// Eq compares the factors byte by byte.
func (d naiveEq) Eq(i, j, l int) bool {
	if i+l > len(d) || j+l > len(d) {
		return false
	}
	return string(d[i:i+l]) == string(d[j:j+l])
}

// Hasher precomputes prefix hashes of a document; Eq answers factor
// equality queries in O(1). Positions are 0-based byte offsets.
type Hasher struct {
	doc      []byte
	pre1     []uint64
	pre2     []uint64
	pow1     []uint64
	pow2     []uint64
	paranoid bool
}

const (
	hashBase1 = 1_000_003
	hashBase2 = 998_244_353
)

// NewHasher builds the prefix tables in O(|doc|).
func NewHasher(doc []byte) *Hasher {
	n := len(doc)
	h := &Hasher{
		doc:  doc,
		pre1: make([]uint64, n+1),
		pre2: make([]uint64, n+1),
		pow1: make([]uint64, n+1),
		pow2: make([]uint64, n+1),
	}
	h.pow1[0], h.pow2[0] = 1, 1
	for i := 0; i < n; i++ {
		h.pre1[i+1] = addmod(mulmod(h.pre1[i], hashBase1), uint64(doc[i])+1)
		h.pre2[i+1] = addmod(mulmod(h.pre2[i], hashBase2), uint64(doc[i])+1)
		h.pow1[i+1] = mulmod(h.pow1[i], hashBase1)
		h.pow2[i+1] = mulmod(h.pow2[i], hashBase2)
	}
	return h
}

// hash returns the two hashes of doc[i:j].
func (h *Hasher) hash(i, j int) (uint64, uint64) {
	h1 := submod(h.pre1[j], mulmod(h.pre1[i], h.pow1[j-i]))
	h2 := submod(h.pre2[j], mulmod(h.pre2[i], h.pow2[j-i]))
	return h1, h2
}

// Eq reports whether doc[i:i+l] == doc[j:j+l] (0-based offsets).
func (h *Hasher) Eq(i, j, l int) bool {
	if i == j {
		return true
	}
	if i+l > len(h.doc) || j+l > len(h.doc) {
		return false
	}
	a1, a2 := h.hash(i, i+l)
	b1, b2 := h.hash(j, j+l)
	if a1 != b1 || a2 != b2 {
		return false
	}
	if h.paranoid {
		return string(h.doc[i:i+l]) == string(h.doc[j:j+l])
	}
	return true
}

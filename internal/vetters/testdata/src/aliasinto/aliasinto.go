// Package aliasinto exercises the aliasinto analyzer: Into-kernel
// calls where the destination aliases a source must be flagged; calls
// over distinct operands must not.
package aliasinto

type Matrix struct{ bits []uint64 }

func (m *Matrix) MulInto(a, b *Matrix) {}

func ApplyRightInto(dst, v []uint64) {}

type kernels struct{}

func (kernels) ApplyRightInto(dst, v []uint64) {}

type wrapper struct {
	scratch *Matrix
	vec     []uint64
}

func bad(x, y *Matrix, w *wrapper, k kernels) {
	x.MulInto(x, y) // want `destination x aliases source operand x`
	x.MulInto(y, x) // want `destination x aliases source operand x`
	x.MulInto(x, x) // want `destination x aliases source operand x`

	w.scratch.MulInto(w.scratch, y) // want `destination w\.scratch aliases source operand w\.scratch`

	k.ApplyRightInto(w.vec, w.vec) // want `dst w\.vec aliases the source vector`
}

func good(x, y, z *Matrix, w *wrapper, k kernels, u []uint64) {
	x.MulInto(y, z)
	x.MulInto(y, y) // sources may alias each other; only dst must be distinct
	w.scratch.MulInto(y, z)
	k.ApplyRightInto(w.vec, u)
	k.ApplyRightInto(u, w.vec)
	// Plain function call (not a method): not a kernel call site.
	ApplyRightInto(u, u)
}

func suppressed(x *Matrix) {
	x.MulInto(x, x) //spanvet:ignore aliasinto
}

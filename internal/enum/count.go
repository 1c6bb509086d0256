package enum

import (
	"math"
	"math/big"

	"docspanner/internal/automata"
	"docspanner/internal/spans"
)

// FastCount returns the exact number of result tuples of the spanner on
// doc WITHOUT enumerating them: the forward dynamic program of
// CountTotalFast counts the accepting runs of the deterministic extended
// vset-automaton, and determinism makes runs and tuples coincide — the
// counting analogue of the enumeration result (answer counting for
// spanners is studied in the literature the survey builds on; for
// deterministic automata it is this easy, while for nondeterministic
// representations it is #P-hard). Counts past int64 repeat the same pass
// over the reached states in big.Int arithmetic.
func FastCount(d *automata.DEVA, doc []byte) *big.Int {
	if n, _, ok := CountTotalFast(d, doc, nil, nil); ok {
		return big.NewInt(int64(n))
	}
	c := d.Compiled()
	add := func(m map[int32]*big.Int, q int32, v *big.Int) {
		if w := m[q]; w != nil {
			w.Add(w, v)
		} else {
			m[q] = new(big.Int).Set(v)
		}
	}
	// cur[q]: run prefixes that arrive in q at the boundary by a letter.
	cur := map[int32]*big.Int{int32(c.Start): big.NewInt(1)}
	for _, b := range doc {
		steps := c.StepsFor(b)
		if steps == nil {
			return new(big.Int) // no transition reads b: no run gets past it
		}
		next := make(map[int32]*big.Int, len(cur))
		for q, v := range cur {
			if s := steps[q]; s >= 0 {
				add(next, s, v)
			}
			for _, me := range c.MaskEdges[q] {
				if s := steps[me.To]; s >= 0 {
					add(next, s, v)
				}
			}
		}
		cur = next
	}
	total := new(big.Int)
	for q, v := range cur {
		if c.Final[q] {
			total.Add(total, v)
		}
		for _, me := range c.MaskEdges[q] {
			if c.Final[me.To] {
				total.Add(total, v)
			}
		}
	}
	return total
}

// prefixes counts the run prefixes that arrive in one state at the
// current boundary by a letter, having opened exactly the required
// variables in sub.
type prefixes struct {
	state int32
	link  int32 // next record of the same state in the same list; -1 ends
	sub   automata.Mask
	n     uint64
}

// CountTotalFast counts the tuples that assign every variable of vars —
// the same quantity as Enumerator.CountTotal — by a forward dynamic
// program over the (state, covered-variable subset) pairs that run
// prefixes of doc actually reach, with NO preprocessing tables and NO
// per-tuple work: time O(|doc|·P·|δ|) for P reached pairs per boundary (at
// most |Q|·2^k for k required variables, a handful when the automaton
// keeps few states alive), independent of the output size. Determinism
// again makes runs and tuples coincide; the subset dimension tracks which
// of the required variables the prefix has opened, so the functional
// filter of CountTotal folds into the DP instead of being tested per run.
//
// ok is false when the DP declines — some prefix count overflows int64 —
// and the caller must fall back to the walk. poll, if non-nil, is a
// cancellation hook invoked every few thousand document positions (a
// poll is a channel select — per-position polling would cost more than
// the DP step it guards); if it returns false the DP aborts with
// (0, false, true): applicable but cancelled, count unknown.
func CountTotalFast(d *automata.DEVA, doc []byte, vars spans.VarSet, poll func() bool) (n int, complete, ok bool) {
	need, has := d.Index.OpenBits(vars)
	if !has {
		return 0, true, true // a required variable the spanner never binds
	}
	c := d.Compiled()

	// head[q] names the newest record of state q in the list being built;
	// it is valid only if it lies inside that list and holds q, so stale
	// values from earlier boundaries need no clearing.
	head := make([]int32, c.NQ)
	overflow := false
	add := func(list []prefixes, q int32, sub automata.Mask, v uint64) []prefixes {
		h := head[q]
		if int(h) >= len(list) || list[h].state != q {
			h = -1
		}
		for x := h; x >= 0; x = list[x].link {
			if list[x].sub == sub {
				list[x].n += v
				overflow = overflow || list[x].n > math.MaxInt64
				return list
			}
		}
		head[q] = int32(len(list))
		return append(list, prefixes{state: q, link: h, sub: sub, n: v})
	}

	// A run takes at most one mask per boundary and then the letter, so a
	// mask edge and the letter behind it are one DP step: letter arrivals
	// only ever meet letter arrivals.
	cur := []prefixes{{state: int32(c.Start), link: -1, n: 1}}
	var next []prefixes
	for i, b := range doc {
		if i&4095 == 0 && poll != nil && !poll() {
			return 0, false, true
		}
		steps := c.StepsFor(b)
		if steps == nil || len(cur) == 0 {
			return 0, true, true
		}
		next = next[:0]
		for _, p := range cur {
			if s := steps[p.state]; s >= 0 {
				next = add(next, s, p.sub, p.n)
			}
			for _, me := range c.MaskEdges[p.state] {
				if s := steps[me.To]; s >= 0 {
					next = add(next, s, p.sub|me.Mask&need, p.n)
				}
			}
		}
		if overflow {
			return 0, false, false
		}
		cur, next = next, cur
	}
	var total uint64
	tally := func(v uint64) {
		total += v
		overflow = overflow || total > math.MaxInt64
	}
	for _, p := range cur {
		if c.Final[p.state] && p.sub == need {
			tally(p.n)
		}
		for _, me := range c.MaskEdges[p.state] {
			if c.Final[me.To] && p.sub|me.Mask&need == need {
				tally(p.n)
			}
		}
	}
	if overflow {
		return 0, false, false
	}
	return int(total), true, true
}

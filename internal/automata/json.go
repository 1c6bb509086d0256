package automata

import (
	"encoding/json"
	"fmt"
	"sort"

	"docspanner/internal/spans"
)

// Serialization of NFAs as a stable, versioned JSON schema, so compiled
// spanners can be persisted and shipped (e.g. precompiled extraction
// libraries) without re-parsing patterns.

type nfaJSON struct {
	Version int          `json:"version"`
	Vars    []string     `json:"vars"`
	States  int          `json:"states"`
	Start   int          `json:"start"`
	Final   []int        `json:"final"`
	Eps     [][2]int     `json:"eps,omitempty"`
	Letters []letterJSON `json:"letters,omitempty"`
	Markers []markerJSON `json:"markers,omitempty"`
	Refs    []refJSON    `json:"refs,omitempty"`
}

type letterJSON struct {
	From int    `json:"f"`
	Byte string `json:"b"`
	To   int    `json:"t"`
}

type markerJSON struct {
	From  int    `json:"f"`
	Var   string `json:"v"`
	Close bool   `json:"c,omitempty"`
	To    int    `json:"t"`
}

type refJSON struct {
	From int    `json:"f"`
	Var  string `json:"v"`
	To   int    `json:"t"`
}

// MarshalJSON encodes the automaton.
func (n *NFA) MarshalJSON() ([]byte, error) {
	out := nfaJSON{Version: 1, States: n.NumStates(), Start: n.Start}
	for _, v := range n.Vars {
		out.Vars = append(out.Vars, string(v))
	}
	for q, f := range n.Final {
		if f {
			out.Final = append(out.Final, q)
		}
	}
	for q := range n.Final {
		for _, r := range n.Eps[q] {
			out.Eps = append(out.Eps, [2]int{q, r})
		}
		bs := make([]int, 0, len(n.Letters[q]))
		for b := range n.Letters[q] {
			bs = append(bs, int(b))
		}
		sort.Ints(bs)
		for _, bi := range bs {
			for _, r := range n.Letters[q][byte(bi)] {
				out.Letters = append(out.Letters, letterJSON{q, string(byte(bi)), r})
			}
		}
		ms := make([]Marker, 0, len(n.Markers[q]))
		for m := range n.Markers[q] {
			ms = append(ms, m)
		}
		sort.Slice(ms, func(i, j int) bool {
			if ms[i].Var != ms[j].Var {
				return ms[i].Var < ms[j].Var
			}
			return !ms[i].Close && ms[j].Close
		})
		for _, m := range ms {
			for _, r := range n.Markers[q][m] {
				out.Markers = append(out.Markers, markerJSON{q, string(m.Var), m.Close, r})
			}
		}
		vs := make([]string, 0, len(n.Refs[q]))
		for v := range n.Refs[q] {
			vs = append(vs, string(v))
		}
		sort.Strings(vs)
		for _, v := range vs {
			for _, r := range n.Refs[q][spans.Var(v)] {
				out.Refs = append(out.Refs, refJSON{q, v, r})
			}
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes an automaton serialized by MarshalJSON.
func (n *NFA) UnmarshalJSON(data []byte) error {
	var in nfaJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	if in.Version != 1 {
		return fmt.Errorf("automata: unsupported serialization version %d", in.Version)
	}
	if in.States < 1 {
		return fmt.Errorf("automata: invalid state count %d", in.States)
	}
	check := func(q int) error {
		if q < 0 || q >= in.States {
			return fmt.Errorf("automata: state %d out of range 0..%d", q, in.States-1)
		}
		return nil
	}
	if err := check(in.Start); err != nil {
		return err
	}
	vars := make([]spans.Var, len(in.Vars))
	for i, v := range in.Vars {
		vars[i] = spans.Var(v)
	}
	fresh := NewNFA(spans.NewVarSet(vars...))
	for i := 1; i < in.States; i++ {
		fresh.AddState()
	}
	fresh.Start = in.Start
	for _, q := range in.Final {
		if err := check(q); err != nil {
			return err
		}
		fresh.SetFinal(q)
	}
	for _, e := range in.Eps {
		if err := check(e[0]); err != nil {
			return err
		}
		if err := check(e[1]); err != nil {
			return err
		}
		fresh.AddEps(e[0], e[1])
	}
	for _, l := range in.Letters {
		if err := check(l.From); err != nil {
			return err
		}
		if err := check(l.To); err != nil {
			return err
		}
		if len(l.Byte) != 1 {
			return fmt.Errorf("automata: letter %q is not one byte", l.Byte)
		}
		fresh.AddLetter(l.From, l.Byte[0], l.To)
	}
	for _, m := range in.Markers {
		if err := check(m.From); err != nil {
			return err
		}
		if err := check(m.To); err != nil {
			return err
		}
		if !fresh.Vars.Contains(spans.Var(m.Var)) {
			return fmt.Errorf("automata: marker for undeclared variable %s", m.Var)
		}
		fresh.AddMarker(m.From, Marker{Var: spans.Var(m.Var), Close: m.Close}, m.To)
	}
	for _, r := range in.Refs {
		if err := check(r.From); err != nil {
			return err
		}
		if err := check(r.To); err != nil {
			return err
		}
		if !fresh.Vars.Contains(spans.Var(r.Var)) {
			return fmt.Errorf("automata: reference to undeclared variable %s", r.Var)
		}
		fresh.AddRef(r.From, spans.Var(r.Var), r.To)
	}
	n.Vars, n.Start, n.Final = fresh.Vars, fresh.Start, fresh.Final
	n.Eps, n.Letters, n.Markers, n.Refs = fresh.Eps, fresh.Letters, fresh.Markers, fresh.Refs
	return nil
}

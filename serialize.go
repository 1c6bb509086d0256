package docspanner

import (
	"encoding/json"
	"fmt"
	"iter"

	"docspanner/internal/automata"
)

// spannerJSON is the stable on-disk form of a compiled spanner.
type spannerJSON struct {
	Version    int           `json:"version"`
	Pattern    string        `json:"pattern,omitempty"`
	Schemaless bool          `json:"schemaless,omitempty"`
	Automaton  *automata.NFA `json:"automaton"`
}

// MarshalJSON serializes the compiled spanner (automaton included), so it
// can be stored and later loaded without re-compiling the pattern.
func (s *Spanner) MarshalJSON() ([]byte, error) {
	return json.Marshal(spannerJSON{
		Version:    1,
		Pattern:    s.pattern,
		Schemaless: s.schemaless,
		Automaton:  s.nfa,
	})
}

// LoadSpanner deserializes a spanner produced by MarshalJSON, re-running
// the validity checks.
func LoadSpanner(data []byte) (*Spanner, error) {
	var in spannerJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, err
	}
	if in.Version != 1 {
		return nil, fmt.Errorf("docspanner: unsupported spanner serialization version %d", in.Version)
	}
	if in.Automaton == nil {
		return nil, fmt.Errorf("docspanner: missing automaton")
	}
	return newSpanner(&Spanner{pattern: in.Pattern, nfa: in.Automaton, schemaless: in.Schemaless})
}

// Dot renders the spanner's automaton in Graphviz DOT format.
func (s *Spanner) Dot() string {
	name := s.pattern
	if name == "" {
		name = "spanner"
	}
	return s.nfa.Dot(name)
}

// Tuples returns a range-over-func iterator over the result tuples:
//
//	for t := range s.Tuples(doc) { ... }
//
// Breaking out of the loop stops the enumeration (useful with the
// constant-delay guarantee: the first k tuples cost preprocessing + O(k)).
func (s *Spanner) Tuples(doc []byte) iter.Seq[Tuple] {
	return func(yield func(Tuple) bool) {
		s.Enumerate(doc, yield)
	}
}

// Package slpmatch implements algorithmics on SLP-compressed strings for
// document spanners (Section 4 of Schmid and Schweikardt's PODS 2022
// survey): membership of a compressed document in an NFA language via
// Boolean matrix products in O(|S|·n³) (Section 4.2, after Plandowski &
// Rytter and Lohrey's survey), and enumeration of a regular spanner's
// result over an SLP-compressed document with preprocessing linear in the
// SLP size and delay O(log |D|) on balanced SLPs (after Schmid &
// Schweikardt, PODS 2021).
//
// All per-node data is memoized in sharded concurrent tables keyed by the
// (immutable, shared) SLP nodes and owned by the Matcher, Index or
// Counter they belong to, so a persistent Index amortizes across the
// documents of a database — and across goroutines — and is maintained
// for free under CDE updates: an update adds O(log d) fresh nodes, and
// only those need new matrices (Section 4.3). An Index tables only the
// nodes longer than a short block and reads shorter subtrees as text
// (block.go). Sharing tables means
// sharing the instance; dropping the instance frees them, and Retain
// frees the data of document versions the database no longer holds.
//
// Matcher, Index, and Counter are safe for concurrent use. The automaton
// an instance is built on must not be mutated afterwards.
package slpmatch

import (
	"fmt"

	"docspanner/internal/automata"
	"docspanner/internal/slp"
)

// Matcher decides membership of SLP-compressed documents in the language
// of a plain NFA (no markers): the classical compressed-membership tool.
// It holds the compiled per-letter matrices of its NFA and its own
// node→matrix table; a Matcher is safe for concurrent use.
type Matcher struct {
	c    *automata.CompiledNFA
	memo *nodeCache[*automata.BoolMatrix]
}

// NewMatcher prepares per-letter transition matrices (compiled once per
// NFA). The automaton must have no marker or reference transitions.
func NewMatcher(nfa *automata.NFA) (*Matcher, error) {
	c, err := nfa.CompiledMatrices()
	if err != nil {
		return nil, fmt.Errorf("slpmatch: %w", err)
	}
	return &Matcher{c: c, memo: newNodeCache[*automata.BoolMatrix](0)}, nil
}

// matrix returns (memoized) the reachability matrix for the derivation
// of node n. Concurrent callers may compute the same node twice; the
// results are equal, so last-write-wins is harmless.
func (m *Matcher) matrix(n *slp.Node) *automata.BoolMatrix {
	if n.IsLeaf() {
		return m.c.LetterMatrix(n.LeafByte())
	}
	if mt, ok := m.memo.get(n); ok {
		return mt
	}
	mt := m.matrix(n.Left()).Mul(m.matrix(n.Right()))
	m.memo.put(n, mt)
	return mt
}

// Accepts decides 𝔇(root) ∈ L(nfa) without decompressing, in time
// O(|S|·n³/64) for the new nodes of root.
func (m *Matcher) Accepts(root *slp.Node) bool {
	c := m.c
	if root == nil {
		return c.EmptyAccept
	}
	mt := m.matrix(root)
	for q, f := range c.NFA.Final {
		if f && mt.Get(c.NFA.Start, q) {
			return true
		}
	}
	return false
}

// Warm computes the matrices of all nodes of root sequentially.
func (m *Matcher) Warm(root *slp.Node) {
	if root != nil {
		m.matrix(root)
	}
}

// WarmParallel computes the matrices of all uncached nodes of root
// bottom-up, fanning each DAG level out over the given number of workers
// (GOMAXPROCS if workers ≤ 0). Nodes of equal order are independent, so
// the schedule is race-free by construction.
func (m *Matcher) WarmParallel(root *slp.Node, workers int) {
	compute := func(n *slp.Node) { m.memo.put(n, m.matrix(n.Left()).Mul(m.matrix(n.Right()))) }
	m.memo.warmParallel(root, workers, func() func(*slp.Node) { return compute })
}

// CachedNodes reports how many inner SLP nodes have matrices computed in
// this Matcher's table.
func (m *Matcher) CachedNodes() int { return m.memo.len() }

// WarmDelta brings the matrix cache up to date after an edit that turned
// oldRoot into newRoot: it computes matrices for the O(log d) fresh
// spine nodes only, pruning the traversal at every node that already has
// one (the subtrees the edit shares with oldRoot — hash-consed, so they
// are free). A nil oldRoot warms newRoot from whatever is cached.
func (m *Matcher) WarmDelta(oldRoot, newRoot *slp.Node) WarmStats {
	return m.memo.warmDelta(oldRoot, newRoot, m.Warm, func(n *slp.Node) { m.matrix(n) })
}

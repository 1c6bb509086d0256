// Package slpmatch implements algorithmics on SLP-compressed strings for
// document spanners (Section 4 of Schmid and Schweikardt's PODS 2022
// survey). One per-node table serves both of the survey's compressed
// questions: an Index keeps, for each SLP node, the Boolean reachability
// matrices of a deterministic eVA and multiplies them along the grammar
// (Section 4.2, after Plandowski & Rytter and Lohrey's survey), so
// membership of a compressed document in a language — NonEmpty on the
// DEVA of a variable-free pattern — is one matrix-vector product at the
// root, and the same table drives enumeration of a regular spanner's
// result with preprocessing linear in the SLP size and delay O(log |D|)
// on balanced SLPs (after Schmid & Schweikardt, PODS 2021). A Counter
// keeps big-integer count matrices for exact tuple counts.
//
// All per-node data is memoized in sharded concurrent tables keyed by the
// (immutable, shared) SLP nodes and owned by the Index or Counter they
// belong to, so a persistent Index amortizes across the documents of a
// database — and across goroutines — and is maintained for free under
// CDE updates: an update adds O(log d) fresh nodes, and only those need
// new matrices (Section 4.3). An Index tables only the nodes longer than
// a short block and reads shorter subtrees as text (block.go). Sharing
// tables means sharing the instance; dropping the instance frees them,
// and Retain frees the data of document versions the database no longer
// holds.
//
// Index and Counter are safe for concurrent use. The automaton an
// instance is built on must not be mutated afterwards.
package slpmatch

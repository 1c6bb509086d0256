package docspanner

import (
	"context"
	"fmt"
	"io"
	"math/big"
	"sync/atomic"

	"docspanner/internal/slp"
	"docspanner/internal/slpmatch"
)

// Document is an SLP-compressed document (Section 4 of the survey). It is
// immutable; edits produce new documents that share structure with the
// old ones.
type Document struct {
	root *slp.Node
}

// CompressDocument compresses plain bytes into an SLP with Re-Pair and
// makes it strongly balanced (the precondition of the compressed
// evaluation and CDE guarantees, Section 4.1).
func CompressDocument(doc []byte) *Document {
	return &Document{root: slp.Balance(slp.Compress(doc))}
}

// DocumentFromBytes wraps plain bytes in a balanced but uncompressed SLP
// (2n−1 nodes) — the baseline representation.
func DocumentFromBytes(doc []byte) *Document {
	return &Document{root: slp.FromBytes(doc)}
}

// RepeatDocument derives the k-fold repetition of a document using
// O(log k) additional nodes — exponential compression.
func RepeatDocument(base *Document, k int64) *Document {
	return &Document{root: slp.Repeat(base.root, k)}
}

// Len returns the document length.
func (d *Document) Len() int64 { return d.root.Len() }

// GrammarSize returns the SLP size |S| (number of distinct DAG nodes).
func (d *Document) GrammarSize() int { return d.root.Size() }

// Bytes decompresses the document.
func (d *Document) Bytes() []byte { return d.root.Bytes() }

// Byte returns the i-th byte (0-based) in O(log n).
func (d *Document) Byte(i int64) byte { return d.root.Byte(i) }

// Node exposes the underlying SLP node for interoperation with the
// internal/slp package.
func (d *Document) Node() *slp.Node { return d.root }

// DocDB is an SLP-represented document database supporting complex
// document editing (Section 4.3).
type DocDB struct {
	db *slp.DB
}

// NewDocDB returns an empty database.
func NewDocDB() *DocDB { return &DocDB{db: slp.NewDB()} }

// Add stores a document under a name.
func (db *DocDB) Add(name string, d *Document) { db.db.Add(name, d.Node()) }

// Get retrieves a stored document.
func (db *DocDB) Get(name string) (*Document, bool) {
	n, ok := db.db.Get(name)
	if !ok {
		return nil, false
	}
	return &Document{root: n}, true
}

// Names lists stored documents.
func (db *DocDB) Names() []string { return db.db.Names() }

// Remove drops the named document from the database. SLP nodes shared
// with other documents remain reachable through them.
func (db *DocDB) Remove(name string) { db.db.Remove(name) }

// Size returns the total number of distinct SLP nodes across the
// database (shared nodes counted once).
func (db *DocDB) Size() int { return db.db.Size() }

// Edit evaluates a CDE expression such as
//
//	insert(delete(D3,2,5), extract(D7,5,21), 12)
//
// and stores the result under name, in time O(|φ|·log d) without
// decompressing any document (Section 4.3). Positions are 1-based and
// inclusive, following the paper.
// CDEError is the typed error of CDE parse and evaluation failures
// (re-exported from internal/slp). Code is one of the CDE… constants;
// Offset locates parse errors in the expression text (-1 for evaluation
// errors); Op is the textual form of the failing operation.
type CDEError = slp.CDEError

// CDE error codes (re-exported): parse failure, unknown document
// reference, out-of-range position.
const (
	CDEParseCode      = slp.CDEParseCode
	CDEUnknownDocCode = slp.CDEUnknownDocCode
	CDERangeCode      = slp.CDERangeCode
)

func (db *DocDB) Edit(name, expr string) (*Document, error) {
	e, err := slp.ParseCDE(expr)
	if err != nil {
		return nil, err
	}
	n, err := db.db.EvalAndAdd(name, e)
	if err != nil {
		return nil, err
	}
	return &Document{root: n}, nil
}

// Index is the compressed-evaluation index of a regular spanner: once
// built, it enumerates the spanner's results over SLP-compressed
// documents with preprocessing linear in the SLP size and delay
// O(log |D|) (Section 4.2), and it extends incrementally across CDE
// edits (Section 4.3). Per-node data lives in concurrent tables the
// Index owns, so an Index is safe for concurrent use and a database of
// documents pays for each shared SLP node once, no matter how many
// goroutines touch it. A spanner or query has exactly one Index — the
// one its own evaluation over compressed documents uses — so whoever
// calls Index() shares those tables, and they are freed with the query.
// Documents themselves are immutable and freely shareable.
type Index struct {
	ix *slpmatch.Index
	// counter is built on first ExactCount; nil until then.
	counter atomic.Pointer[slpmatch.Counter]
}

// Index returns the spanner's compressed-evaluation index (regular
// spanners only), built on first use.
func (s *Spanner) Index() (*Index, error) {
	if !s.IsRegular() {
		return nil, fmt.Errorf("docspanner: compressed evaluation is implemented for regular spanners")
	}
	s.indexOnce.Do(func() {
		ix, ok := s.plan().Index()
		if !ok {
			// Pruned to ∅ or over the planner's determinization gate: the
			// plan has no constant-delay scan whose index to share.
			ix = slpmatch.NewIndex(s.dEVA())
		}
		s.index = &Index{ix: ix}
	})
	return s.index, nil
}

// Warm runs the preprocessing for a document (linear in its SLP size;
// shared nodes across documents are processed once).
func (ix *Index) Warm(d *Document) { ix.ix.Warm(d.Node()) }

// WarmStats reports the work one WarmDelta call did: nodes recomputed
// (the O(log d) edit spine), distinct cached subtree roots reused, and
// nodes already cached before the call. It aliases the slpmatch type so
// the counters stay comparable across layers.
type WarmStats = slpmatch.WarmStats

// WarmDelta brings the index up to date after a CDE edit that turned old
// into cur: only the O(log d) fresh spine nodes are recomputed; every
// subtree cur shares with old is reused through the index's tables. When the
// index's exact counter has been used (ExactCount), its count matrices
// are maintained too, so live counts stay one cache hit away. A nil old
// document warms cur from whatever is cached.
func (ix *Index) WarmDelta(old, cur *Document) WarmStats {
	var oldRoot *slp.Node
	if old != nil {
		oldRoot = old.Node()
	}
	st := ix.ix.WarmDelta(oldRoot, cur.Node())
	if ct := ix.counter.Load(); ct != nil {
		st.Add(ct.WarmDelta(oldRoot, cur.Node()))
	}
	return st
}

// Enumerate streams the result tuples on the compressed document.
func (ix *Index) Enumerate(d *Document, f func(Tuple) bool) {
	ix.ix.Each(d.Node(), f)
}

// Count returns the number of result tuples.
func (ix *Index) Count(d *Document) int { return ix.ix.Count(d.Node()) }

// Eval materializes the result relation.
func (ix *Index) Eval(d *Document) *Relation { return ix.ix.All(d.Node()) }

// NonEmpty decides S(D) ≠ ∅ in compressed time.
func (ix *Index) NonEmpty(d *Document) bool { return ix.ix.NonEmpty(d.Node()) }

// ExactCount returns the exact number of result tuples on the compressed
// document via big-integer matrix counting — polynomial in the SLP size
// even when the count itself is astronomical.
func (ix *Index) ExactCount(d *Document) *big.Int {
	ct := ix.counter.Load()
	if ct == nil {
		// A racing first call builds a counter too; one wins, and every
		// caller counts — and WarmDelta maintains — on the winner.
		ix.counter.CompareAndSwap(nil, slpmatch.NewCounter(ix.ix.DEVA()))
		ct = ix.counter.Load()
	}
	return ct.Count(d.Node())
}

// EvalCompressed materializes the query result on an SLP-compressed
// document (see Compressed for what decompresses and what does not).
func (q *Query) EvalCompressed(d *Document) *Relation { return q.plan().Eval(Compressed(d, nil)) }

// EnumerateCompressedContext is EnumerateSource on an SLP-compressed
// document.
func (q *Query) EnumerateCompressedContext(ctx context.Context, d *Document, f func(Tuple) bool) error {
	return q.EnumerateSource(ctx, Compressed(d, nil), f)
}

// CountCompressedContext is CountSource on an SLP-compressed document.
func (q *Query) CountCompressedContext(ctx context.Context, d *Document) (int, error) {
	return q.CountSource(ctx, Compressed(d, nil))
}

// Index returns the query's compressed-evaluation index, available
// exactly when the planner collapses the whole query into one regular
// scan (a single fused vset-automaton) — the plan shape the logarithmic-
// delay compressed enumeration of Section 4.2 requires. It is the index
// the query's compressed evaluation (EvalCompressed, EnumerateSource and
// CountSource on a Compressed source) uses, built once per query.
// Queries with residual algebra (unfusable joins, selections, refl
// scans) return an error; they can still evaluate on compressed
// documents with EvalCompressed.
func (q *Query) Index() (*Index, error) {
	if ix := q.index.Load(); ix != nil {
		return ix, nil
	}
	pix, ok := q.plan().Index()
	if !ok {
		return nil, fmt.Errorf("docspanner: Query.Index needs a plan that fuses to a single regular scan (plan:\n%s)", q.Explain())
	}
	// pix is the same instance on every call; a racing first call wraps
	// it too, and one wrapper — one exact counter — wins.
	q.index.CompareAndSwap(nil, &Index{ix: pix})
	return q.index.Load(), nil
}

// Flush empties, in place, the per-node tables the query has built over
// compressed documents — those of every scan's index and of the exact
// counter — releasing the data of every document seen so far; it builds
// nothing. Safe while other goroutines evaluate, warm or count on the
// same query: they recompute what they miss, and everything that holds
// the query's Index keeps sharing one table set afterwards.
func (q *Query) Flush() {
	q.plan().Flush()
	if ct := q.counter(); ct != nil {
		ct.Flush()
	}
}

// Retain forgets, in the same tables, the data of every grammar node
// that no document of live reaches — the versions a document database
// has superseded or deleted — and returns how many nodes it forgot. A
// table is swept only once it has grown past its budget since its last
// sweep, so calling Retain after every mutation is cheap. live must
// list every document the query is still meant to serve warm; a live
// node left out is merely recomputed on its next use. Safe while other
// goroutines evaluate, warm or count on the same query, like Flush.
func (q *Query) Retain(live []*Document) int {
	roots := make([]*slp.Node, len(live))
	for i, d := range live {
		roots[i] = d.root
	}
	n := q.plan().Retain(roots)
	if ct := q.counter(); ct != nil {
		n += ct.Retain(roots)
	}
	return n
}

// CachedNodes reports the grammar nodes with data in the query's
// per-node tables: every scan's index plus the exact counter.
func (q *Query) CachedNodes() int {
	n := q.plan().CachedNodes()
	if ct := q.counter(); ct != nil {
		n += ct.CachedNodes()
	}
	return n
}

// IndexElements reports the distinct per-node values the query's
// compressed-evaluation indexes hold in their element tables, which
// every grammar node with the same value shares.
func (q *Query) IndexElements() int { return q.plan().Elements() }

// counter returns the exact counter of the query's Index, nil until
// ExactCount built one.
func (q *Query) counter() *slpmatch.Counter {
	if ix := q.index.Load(); ix != nil {
		return ix.counter.Load()
	}
	return nil
}

// WriteTo serializes the database (the shared SLP DAG plus document
// roots) without decompressing anything; the output size is proportional
// to the grammar, not the documents.
func (db *DocDB) WriteTo(w io.Writer) (int64, error) { return db.db.WriteTo(w) }

// ReadDocDB loads a database written by WriteTo, restoring structure
// sharing exactly.
func ReadDocDB(r io.Reader) (*DocDB, error) {
	inner, err := slp.ReadDB(r)
	if err != nil {
		return nil, err
	}
	return &DocDB{db: inner}, nil
}

// WriteToChecked is WriteTo wrapped in a length-prefixed CRC-32C frame,
// so a torn or corrupted persisted database is detected on load instead
// of silently losing a suffix of its nodes. This is the on-disk format
// the spannerd storage snapshots use.
func (db *DocDB) WriteToChecked(w io.Writer) (int64, error) { return db.db.WriteToChecked(w) }

// ReadDocDBChecked loads a database written by WriteToChecked, verifying
// the checksum before trusting any node, and consuming exactly the frame
// from r.
func ReadDocDBChecked(r io.Reader) (*DocDB, error) {
	inner, err := slp.ReadDBChecked(r)
	if err != nil {
		return nil, err
	}
	return &DocDB{db: inner}, nil
}

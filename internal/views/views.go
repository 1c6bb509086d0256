// Package views maintains materialized (document, query) views over the
// compressed spanner stack: each view pins a prepared query's compressed
// index to a named document and keeps a version-stamped result — exact
// tuple count, and the materialized sorted tuples when small enough —
// that is refreshed incrementally after CDE edits. A refresh recomputes
// only the O(log d) fresh spine of the edited SLP (Index.WarmDelta); the
// rest of the grammar is reused through the index's per-node tables, so
// live views cost per edit what the survey's Section 4.3 promises, not a
// re-evaluation. The count is the length of the materialization; only a
// result past the materialization cap is counted by the index's
// big-integer counter (Index.ExactCount) instead.
//
// A Set is safe for concurrent use. Refreshes of one view serialize on a
// mutex of their own and compute outside the lock that guards the
// published result, so reads see consistent immutable snapshots without
// waiting for a refresh in flight. Versions are monotonic: a refresh
// carrying a version at or below the current one is skipped, so racing
// refresh requests (e.g. a coalescing background refresher) cannot tear
// or rewind a view.
package views

import (
	"math/big"
	"sort"
	"sync"
	"time"

	"docspanner"
)

// DefaultMaxMaterialize caps the tuples materialized per view version.
// Counts are exact regardless: up to the cap a count is the length of
// the materialization, past it the index's big-integer matrix counter
// supplies it; only the tuple list and /changes diffs are withheld above
// the cap.
const DefaultMaxMaterialize = 65536

// DefaultHistory is how many past materialized versions a view keeps for
// Changes(since) diffs.
const DefaultHistory = 8

// Config bounds the materialization work of a Set.
type Config struct {
	// MaxMaterialize caps the tuples materialized per version
	// (DefaultMaxMaterialize if ≤ 0).
	MaxMaterialize int
	// History is the number of past versions kept per view for diffs
	// (DefaultHistory if ≤ 0).
	History int
}

func (c Config) withDefaults() Config {
	if c.MaxMaterialize <= 0 {
		c.MaxMaterialize = DefaultMaxMaterialize
	}
	if c.History <= 0 {
		c.History = DefaultHistory
	}
	return c
}

// Key identifies a view: one prepared query over one named document.
type Key struct {
	Doc   string
	Query string
}

// Result is one immutable version-stamped refresh outcome.
type Result struct {
	// Version is the document version this result evaluates.
	Version int
	// Count is the exact number of result tuples (never nil).
	Count *big.Int
	// Tuples is the sorted materialized result, nil when Count exceeds
	// the materialization cap (Materialized reports which).
	Tuples       []docspanner.Tuple
	Materialized bool
	// Refreshed is when this version was computed; Elapsed how long the
	// refresh took (delta warm + materialization, + count past the cap).
	Refreshed time.Time
	Elapsed   time.Duration
	// Stats is the WarmDelta work of this refresh: Recomputed is the
	// edit spine (O(log d) per CDE operation), Reused the cached subtree
	// boundary.
	Stats docspanner.WarmStats
	// GrammarSize is the document's SLP size at this version — the
	// denominator of the memo-reuse ratio: a refresh that recomputed r
	// nodes of a g-node grammar reused 1 − r/g of the DAG.
	GrammarSize int
}

// ReuseRatio is the fraction of the document's grammar this refresh did
// NOT recompute — 1 for a pure cache hit, 0 for a cold evaluation.
func (r *Result) ReuseRatio() float64 {
	if r.GrammarSize == 0 {
		return 1
	}
	ratio := 1 - float64(r.Stats.Recomputed)/float64(r.GrammarSize)
	if ratio < 0 {
		return 0
	}
	return ratio
}

// View is one live (doc, query) materialization. All its methods are
// safe for concurrent use.
type View struct {
	key Key
	ix  *docspanner.Index
	cfg Config

	// refreshMu serializes refreshes; prevDoc belongs to it.
	refreshMu sync.Mutex
	prevDoc   *docspanner.Document // snapshot behind cur, for WarmDelta

	// mu guards the published state below; a refresh takes it only to
	// publish.
	mu   sync.Mutex
	cur  *Result
	hist []*Result // oldest first, at most cfg.History entries

	refreshes  int
	skipped    int
	recomputed uint64
	reused     uint64
}

// Key returns the view's (doc, query) identity.
func (v *View) Key() Key { return v.key }

// Totals reports the view's lifetime refresh counters: refreshes
// performed, stale requests skipped, and the summed WarmDelta node
// counts.
func (v *View) Totals() (refreshes, skipped int, recomputed, reused uint64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.refreshes, v.skipped, v.recomputed, v.reused
}

// Current returns the latest result, or nil before the first refresh.
// The result is immutable — callers must not modify Tuples.
func (v *View) Current() *Result {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.cur
}

// Refresh brings the view to the given document version. It is skipped
// (returning the current result and false) when version is not newer
// than the view's — refreshes are version-monotonic, so stale or
// duplicate requests from a coalescing refresher are harmless. The
// returned Result is immutable. Readers of the view do not wait for the
// computation, only for its publication.
func (v *View) Refresh(d *docspanner.Document, version int) (*Result, bool) {
	v.refreshMu.Lock()
	defer v.refreshMu.Unlock()
	v.mu.Lock()
	if cur := v.cur; cur != nil && version <= cur.Version {
		v.skipped++
		v.mu.Unlock()
		return cur, false
	}
	v.mu.Unlock()

	start := time.Now()
	st := v.ix.WarmDelta(v.prevDoc, d)
	res := &Result{
		Version:     version,
		Refreshed:   start,
		Stats:       st,
		GrammarSize: d.GrammarSize(),
	}
	// A scan never repeats a tuple, so the enumeration is the relation:
	// collect it, stopping at the first tuple past the cap.
	var tuples []docspanner.Tuple
	over := false
	v.ix.Enumerate(d, func(t docspanner.Tuple) bool {
		if over = len(tuples) == v.cfg.MaxMaterialize; !over {
			tuples = append(tuples, t)
		}
		return !over
	})
	if over {
		res.Count = v.ix.ExactCount(d)
	} else {
		docspanner.SortTuples(tuples)
		res.Count = big.NewInt(int64(len(tuples)))
		res.Tuples, res.Materialized = tuples, true
	}
	res.Elapsed = time.Since(start)
	testHookRefreshComputed()

	v.prevDoc = d
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.cur != nil {
		v.hist = append(v.hist, v.cur)
		if len(v.hist) > v.cfg.History {
			v.hist = v.hist[len(v.hist)-v.cfg.History:]
		}
	}
	v.cur = res
	v.refreshes++
	v.recomputed += uint64(st.Recomputed)
	v.reused += uint64(st.Reused)
	return res, true
}

// testHookRefreshComputed runs between a refresh's computation and its
// publication; tests replace it to hold a refresh in flight.
var testHookRefreshComputed = func() {}

// at returns the result for an exact version: the current one or a
// history entry.
func (v *View) at(version int) *Result {
	if v.cur != nil && v.cur.Version == version {
		return v.cur
	}
	for i := len(v.hist) - 1; i >= 0; i-- {
		if v.hist[i].Version == version {
			return v.hist[i]
		}
	}
	return nil
}

// Changes diffs the materialized results between version since and the
// current version: tuples added and removed, each in canonical sorted
// order. It fails (ok = false) when the view has no current result, the
// since version has left the history window, or either endpoint was too
// large to materialize — the caller distinguishes these through the
// returned endpoints.
func (v *View) Changes(since int) (from, to *Result, added, removed []docspanner.Tuple, ok bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	to = v.cur
	if to == nil {
		return nil, nil, nil, nil, false
	}
	from = v.at(since)
	if from == nil || !from.Materialized || !to.Materialized {
		return from, to, nil, nil, false
	}
	added, removed = diffSorted(from.Tuples, to.Tuples)
	return from, to, added, removed, true
}

// diffSorted merges two canonically sorted tuple lists into (added,
// removed) — tuples only in b, tuples only in a.
func diffSorted(a, b []docspanner.Tuple) (added, removed []docspanner.Tuple) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch c := a[i].Compare(b[j]); {
		case c < 0:
			removed = append(removed, a[i])
			i++
		case c > 0:
			added = append(added, b[j])
			j++
		default:
			i++
			j++
		}
	}
	removed = append(removed, a[i:]...)
	added = append(added, b[j:]...)
	return added, removed
}

// Set is the collection of live views, keyed by (doc, query).
type Set struct {
	cfg Config

	mu    sync.RWMutex
	views map[Key]*View
}

// NewSet returns an empty view set.
func NewSet(cfg Config) *Set {
	return &Set{cfg: cfg.withDefaults(), views: map[Key]*View{}}
}

// Register creates (or returns, idempotently) the view for (doc, query)
// over the given compressed index. The view is registered unrefreshed;
// the caller performs the first Refresh with the current snapshot.
//
// persist, when non-nil, runs under the set lock for a newly created
// view (typically teeing the registration into the storage backend); an
// error undoes the creation before any other caller can observe it, so
// a concurrent Register for the same key never sees — and reports
// success for — a registration that is about to be rolled back.
func (s *Set) Register(doc, query string, ix *docspanner.Index, persist func() error) (*View, bool, error) {
	key := Key{Doc: doc, Query: query}
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := s.views[key]; ok {
		return v, false, nil
	}
	if persist != nil {
		if err := persist(); err != nil {
			return nil, false, err
		}
	}
	v := &View{key: key, ix: ix, cfg: s.cfg}
	s.views[key] = v
	return v, true, nil
}

// Get returns the view for (doc, query) if registered.
func (s *Set) Get(doc, query string) (*View, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.views[Key{Doc: doc, Query: query}]
	return v, ok
}

// Drop removes one view, reporting whether it existed. persist, when
// non-nil, runs under the set lock before the removal becomes visible
// (write-ahead order: a drop the backend refused leaves the view
// registered); it is not called for a view that does not exist.
func (s *Set) Drop(doc, query string, persist func() error) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := Key{Doc: doc, Query: query}
	if _, ok := s.views[key]; !ok {
		return false, nil
	}
	if persist != nil {
		if err := persist(); err != nil {
			return false, err
		}
	}
	delete(s.views, key)
	return true, nil
}

// DropDoc removes every view over the named document (the document was
// deleted), returning how many were dropped.
func (s *Set) DropDoc(doc string) int {
	return s.dropIf(func(k Key) bool { return k.Doc == doc })
}

// DropQuery removes every view of the named query (the query was deleted
// or re-registered with a new definition), returning how many were
// dropped.
func (s *Set) DropQuery(query string) int {
	return s.dropIf(func(k Key) bool { return k.Query == query })
}

func (s *Set) dropIf(match func(Key) bool) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for k := range s.views {
		if match(k) {
			delete(s.views, k)
			n++
		}
	}
	return n
}

// ForDoc returns the views over the named document, sorted by query name
// — the set an edit must refresh.
func (s *Set) ForDoc(doc string) []*View {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []*View
	for k, v := range s.views {
		if k.Doc == doc {
			out = append(out, v)
		}
	}
	sortViews(out)
	return out
}

// List returns all views sorted by (doc, query).
func (s *Set) List() []*View {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*View, 0, len(s.views))
	for _, v := range s.views {
		out = append(out, v)
	}
	sortViews(out)
	return out
}

// Len reports the number of registered views.
func (s *Set) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.views)
}

func sortViews(vs []*View) {
	sort.Slice(vs, func(i, j int) bool {
		if vs[i].key.Doc != vs[j].key.Doc {
			return vs[i].key.Doc < vs[j].key.Doc
		}
		return vs[i].key.Query < vs[j].key.Query
	})
}

package views

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"docspanner"
)

func testIndex(t *testing.T, src string) *docspanner.Index {
	t.Helper()
	s := docspanner.MustCompile(src, docspanner.Options{Alphabet: []byte("ab")})
	ix, err := s.Index()
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestViewRefreshTracksEdits(t *testing.T) {
	set := NewSet(Config{})
	ix := testIndex(t, ".*!x{ab}.*")
	s := docspanner.MustCompile(".*!x{ab}.*", docspanner.Options{Alphabet: []byte("ab")})

	db := docspanner.NewDocDB()
	// Longer than the index's blocks, so every refresh computes tables.
	db.Add("d", docspanner.CompressDocument([]byte(strings.Repeat("abba", 64))))
	doc, _ := db.Get("d")

	v, created, _ := set.Register("d", "q", ix, nil)
	if !created {
		t.Fatal("Register did not create")
	}
	if _, again, _ := set.Register("d", "q", ix, nil); again {
		t.Fatal("Register not idempotent")
	}
	if v.Current() != nil {
		t.Fatal("unrefreshed view has a result")
	}

	res, did := v.Refresh(doc, 1)
	if !did || res.Version != 1 || !res.Materialized {
		t.Fatalf("first refresh: %+v did=%v", res, did)
	}
	version := 1
	for i := 0; i < 5; i++ {
		cur, err := db.Edit("d", fmt.Sprintf("insert(d, d, %d)", i+2))
		if err != nil {
			t.Fatal(err)
		}
		version++
		res, did = v.Refresh(cur, version)
		if !did {
			t.Fatalf("edit %d: refresh skipped", i)
		}
		want := s.Eval(cur.Bytes())
		if res.Count.Int64() != int64(want.Len()) {
			t.Fatalf("edit %d: count = %v, want %d", i, res.Count, want.Len())
		}
		if !docspanner.NewRelation(res.Tuples...).Equal(want) {
			t.Fatalf("edit %d: materialized tuples diverged", i)
		}
		if res.Stats.Recomputed == 0 {
			t.Fatalf("edit %d: refresh recomputed nothing", i)
		}
		if r := res.ReuseRatio(); r < 0 || r > 1 {
			t.Fatalf("edit %d: reuse ratio %v out of [0,1]", i, r)
		}
	}
	refreshes, skipped, recomputed, _ := v.Totals()
	if refreshes != 6 || skipped != 0 || recomputed == 0 {
		t.Fatalf("totals: refreshes=%d skipped=%d recomputed=%d", refreshes, skipped, recomputed)
	}
}

func TestViewRefreshIsVersionMonotonic(t *testing.T) {
	set := NewSet(Config{})
	v, _, _ := set.Register("d", "q", testIndex(t, ".*!x{a}.*"), nil)
	d1 := docspanner.DocumentFromBytes([]byte("ab"))
	d2 := docspanner.DocumentFromBytes([]byte("aab"))

	if _, did := v.Refresh(d2, 2); !did {
		t.Fatal("refresh to v2 skipped")
	}
	// A stale refresh (racing worker that lost) must not rewind.
	if res, did := v.Refresh(d1, 1); did || res.Version != 2 {
		t.Fatalf("stale refresh applied: did=%v version=%d", did, res.Version)
	}
	if res, did := v.Refresh(d2, 2); did || res.Version != 2 {
		t.Fatalf("duplicate refresh applied: did=%v version=%d", did, res.Version)
	}
	_, skipped, _, _ := v.Totals()
	if skipped != 2 {
		t.Fatalf("skipped = %d, want 2", skipped)
	}
}

func TestViewChanges(t *testing.T) {
	set := NewSet(Config{})
	v, _, _ := set.Register("d", "q", testIndex(t, ".*!x{ab}.*"), nil)

	db := docspanner.NewDocDB()
	db.Add("d", docspanner.CompressDocument([]byte("ab")))
	d1, _ := db.Get("d")
	v.Refresh(d1, 1)

	// "ab" -> "abab": the old tuple shifts? No — x in {ab at 1..3} stays,
	// and a new match at 3..5 appears.
	d2, err := db.Edit("d", "concat(d, d)")
	if err != nil {
		t.Fatal(err)
	}
	v.Refresh(d2, 2)

	from, to, added, removed, ok := v.Changes(1)
	if !ok {
		t.Fatalf("Changes failed: from=%v to=%v", from, to)
	}
	if from.Version != 1 || to.Version != 2 {
		t.Fatalf("endpoints %d -> %d", from.Version, to.Version)
	}
	if len(added) != 1 || len(removed) != 0 {
		t.Fatalf("added=%v removed=%v", added, removed)
	}
	// Diff against the current version is empty.
	if _, _, added, removed, ok := v.Changes(2); !ok || len(added) != 0 || len(removed) != 0 {
		t.Fatalf("self-diff: ok=%v added=%v removed=%v", ok, added, removed)
	}
	// A version never seen fails cleanly.
	if _, _, _, _, ok := v.Changes(99); ok {
		t.Fatal("Changes(99) succeeded")
	}
}

func TestViewChangesHistoryWindow(t *testing.T) {
	set := NewSet(Config{History: 2})
	v, _, _ := set.Register("d", "q", testIndex(t, ".*!x{ab}.*"), nil)
	db := docspanner.NewDocDB()
	db.Add("d", docspanner.CompressDocument([]byte("ab")))
	d, _ := db.Get("d")
	v.Refresh(d, 1)
	for i := 2; i <= 5; i++ {
		d, _ = db.Edit("d", "concat(d, d)")
		v.Refresh(d, i)
	}
	if _, _, _, _, ok := v.Changes(1); ok {
		t.Fatal("version 1 should have left the history window")
	}
	if _, _, added, _, ok := v.Changes(4); !ok || len(added) == 0 {
		t.Fatalf("Changes(4): ok=%v added=%v", ok, added)
	}
}

func TestViewMaterializationCap(t *testing.T) {
	set := NewSet(Config{MaxMaterialize: 2})
	v, _, _ := set.Register("d", "q", testIndex(t, ".*!x{a}.*"), nil)
	d := docspanner.DocumentFromBytes([]byte("aaaa")) // 4 matches > cap
	res, _ := v.Refresh(d, 1)
	if res.Materialized || res.Tuples != nil {
		t.Fatalf("result over the cap materialized: %+v", res)
	}
	if res.Count.Int64() != 4 {
		t.Fatalf("count = %v, want 4 (exact despite the cap)", res.Count)
	}
	if _, _, _, _, ok := v.Changes(1); ok {
		t.Fatal("Changes over an unmaterialized endpoint succeeded")
	}

	// Past the cap on an edited document the count still comes from the
	// index's exact counter, maintained across the edit.
	db := docspanner.NewDocDB()
	db.Add("d", docspanner.CompressDocument([]byte("abab")))
	d1, _ := db.Get("d")
	if res, _ := v.Refresh(d1, 2); res.Count.Int64() != 2 || !res.Materialized {
		t.Fatalf("at the cap: count = %v, materialized = %v", res.Count, res.Materialized)
	}
	d2, err := db.Edit("d", "insert(d, d, 3)")
	if err != nil {
		t.Fatal(err)
	}
	res, _ = v.Refresh(d2, 3)
	if res.Materialized || res.Tuples != nil {
		t.Fatalf("edited result over the cap materialized: %+v", res)
	}
	if want := testIndex(t, ".*!x{a}.*").ExactCount(d2); res.Count.Cmp(want) != 0 || want.Int64() != 4 {
		t.Fatalf("count after the edit = %v, ExactCount = %v, want 4", res.Count, want)
	}
}

// TestViewRefreshAllocsFollowTuplesAndSpine pins what a refresh after a
// CDE edit allocates: the materialized tuples and the index data of the
// edit's fresh spine (measured on a second index), not a big-integer
// count matrix per spine node.
func TestViewRefreshAllocsFollowTuplesAndSpine(t *testing.T) {
	set := NewSet(Config{})
	v, _, _ := set.Register("d", "q", testIndex(t, ".*!x{ab}.*"), nil)
	db := docspanner.NewDocDB()
	text := make([]byte, 1<<14)
	for i := range text {
		text[i] = "ab"[i/512%2]
	}
	db.Add("d", docspanner.CompressDocument(text))
	d, _ := db.Get("d")
	v.Refresh(d, 1)
	spineIx := testIndex(t, ".*!x{ab}.*")
	spineIx.Warm(d)
	var docs []*docspanner.Document
	var spines []int
	for i := 0; i < 8; i++ {
		next, err := db.Edit("d", fmt.Sprintf("copy(d, %d, %d, %d)", 100*i+1, 100*i+7, 1000*i+1))
		if err != nil {
			t.Fatal(err)
		}
		spines = append(spines, spineIx.WarmDelta(d, next).Recomputed)
		docs = append(docs, next)
		d = next
	}
	// AllocsPerRun refreshes twice (a warm-up, then the measured run),
	// each time to the next edited version.
	version := 1
	worst := 0.0
	for i := 0; i < len(docs)/2; i++ {
		var res *Result
		allocs := testing.AllocsPerRun(1, func() {
			version++
			res, _ = v.Refresh(docs[version-2], version)
		})
		work := float64(res.Count.Int64()) + float64(spines[version-2])
		worst = max(worst, allocs/work)
		if allocs > 12*work {
			t.Errorf("edit %d: %.0f allocations for %v tuples and a %d-node spine, want ≤ 12 per tuple or node",
				i, allocs, res.Count, spines[version-2])
		}
	}
	t.Logf("worst: %.2f allocations per tuple or spine node", worst)
}

// TestViewReadsDoNotWaitForRefresh holds a refresh between its
// computation and its publication: every read of the view must complete
// meanwhile and see the previous version, and the refresh must then
// publish.
func TestViewReadsDoNotWaitForRefresh(t *testing.T) {
	set := NewSet(Config{})
	v, _, _ := set.Register("d", "q", testIndex(t, ".*!x{ab}.*"), nil)
	db := docspanner.NewDocDB()
	db.Add("d", docspanner.CompressDocument([]byte("abab")))
	d1, _ := db.Get("d")
	v.Refresh(d1, 1)
	d2, err := db.Edit("d", "concat(d, d)")
	if err != nil {
		t.Fatal(err)
	}

	inFlight, release := make(chan struct{}), make(chan struct{})
	testHookRefreshComputed = func() { close(inFlight); <-release }
	defer func() { testHookRefreshComputed = func() {} }()
	done := make(chan *Result)
	go func() {
		res, _ := v.Refresh(d2, 2)
		done <- res
	}()
	<-inFlight

	if res := v.Current(); res == nil || res.Version != 1 {
		t.Fatalf("Current during a refresh = %+v, want version 1", res)
	}
	if from, to, added, removed, ok := v.Changes(1); !ok || from.Version != 1 || to.Version != 1 || len(added)+len(removed) != 0 {
		t.Fatalf("Changes during a refresh: ok=%v added=%v removed=%v", ok, added, removed)
	}
	if refreshes, _, _, _ := v.Totals(); refreshes != 1 {
		t.Fatalf("refreshes during a refresh = %d, want 1", refreshes)
	}

	close(release)
	if res := <-done; res.Version != 2 || res.Count.Int64() != 4 {
		t.Fatalf("held refresh published %+v, want version 2 with 4 tuples", res)
	}
	if res := v.Current(); res.Version != 2 {
		t.Fatalf("Current after the refresh = version %d, want 2", res.Version)
	}
}

func TestSetDropScopes(t *testing.T) {
	set := NewSet(Config{})
	ix := testIndex(t, ".*!x{a}.*")
	set.Register("d1", "q1", ix, nil)
	set.Register("d1", "q2", ix, nil)
	set.Register("d2", "q1", ix, nil)
	if set.Len() != 3 {
		t.Fatalf("Len = %d", set.Len())
	}
	if got := len(set.ForDoc("d1")); got != 2 {
		t.Fatalf("ForDoc(d1) = %d views", got)
	}
	if n := set.DropQuery("q1"); n != 2 {
		t.Fatalf("DropQuery(q1) = %d", n)
	}
	if n := set.DropDoc("d1"); n != 1 {
		t.Fatalf("DropDoc(d1) = %d", n)
	}
	if set.Len() != 0 {
		t.Fatalf("Len = %d after drops", set.Len())
	}
	if ok, _ := set.Drop("d1", "q1", nil); ok {
		t.Fatal("Drop of missing view reported true")
	}
}

// TestViewConcurrentRefreshAndRead drives racing refreshes (as the async
// refresher does) against readers; versions must advance monotonically
// and snapshots must be internally consistent.
func TestViewConcurrentRefreshAndRead(t *testing.T) {
	set := NewSet(Config{})
	v, _, _ := set.Register("d", "q", testIndex(t, ".*!x{ab}.*"), nil)

	db := docspanner.NewDocDB()
	db.Add("d", docspanner.CompressDocument([]byte("ab")))
	type ver struct {
		doc *docspanner.Document
		n   int
	}
	versions := []ver{}
	d, _ := db.Get("d")
	versions = append(versions, ver{d, 1})
	for i := 2; i <= 16; i++ {
		d, err := db.Edit("d", "insert(d, d, 2)")
		if err != nil {
			t.Fatal(err)
		}
		versions = append(versions, ver{d, i})
	}
	counts := make([]int64, len(versions)+1)
	ref := testIndex(t, ".*!x{ab}.*")
	for _, vv := range versions {
		counts[vv.n] = ref.ExactCount(vv.doc).Int64()
	}

	stop := make(chan struct{})
	readerDone := make(chan error, 1)
	go func() {
		last := 0
		for {
			select {
			case <-stop:
				readerDone <- nil
				return
			default:
			}
			res := v.Current()
			if res == nil {
				continue
			}
			if res.Version < last {
				readerDone <- fmt.Errorf("version went backwards: %d after %d", res.Version, last)
				return
			}
			if res.Count.Int64() != counts[res.Version] {
				readerDone <- fmt.Errorf("torn result: version %d carries count %v, want %d", res.Version, res.Count, counts[res.Version])
				return
			}
			last = res.Version
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(versions)*4; i++ {
				vv := versions[i%len(versions)]
				v.Refresh(vv.doc, vv.n)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	if err := <-readerDone; err != nil {
		t.Fatal(err)
	}
	if res := v.Current(); res == nil || res.Version != len(versions) {
		t.Fatalf("final version = %+v, want %d", res, len(versions))
	}
}

// Race-regression tests for shared compiled artifacts. Run with
// `go test -race`: on the pre-fix code the unsynchronized dEVA
// memoization makes TestSharedSpannerConcurrentUse fail with a race
// report; with the sync.Once guard the whole file must be race-clean.
package docspanner

import (
	"fmt"
	"sync"
	"testing"
)

// runShared fans work out to 8 goroutines, each performing iters rounds,
// and reports every failure message produced.
func runShared(t *testing.T, iters int, round func(g, rep int) error) {
	t.Helper()
	const workers = 8
	errs := make(chan error, workers*iters)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < iters; rep++ {
				if err := round(g, rep); err != nil {
					errs <- err
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestSharedSpannerConcurrentUse(t *testing.T) {
	const pattern = "!x{(a|b)*}!y{b}!z{(a|b)*}"
	doc := []byte("ababbab")
	// Expected values come from a private instance so that the shared
	// spanner reaches the goroutines with its lazy determinization still
	// pending — the exact state in which the original race fired.
	ref := MustCompile(pattern, Options{})
	want := ref.Eval(doc)
	tup := want.Tuples()[0]

	s := MustCompile(pattern, Options{})
	runShared(t, 6, func(g, rep int) error {
		switch (g + rep) % 4 {
		case 0:
			if got := s.Eval(doc); !got.Equal(want) {
				return fmt.Errorf("Eval = %v, want %v", got, want)
			}
		case 1:
			n := 0
			s.Enumerate(doc, func(Tuple) bool { n++; return true })
			if n != want.Len() {
				return fmt.Errorf("Enumerate yielded %d tuples, want %d", n, want.Len())
			}
		case 2:
			ok, err := s.ModelCheck(doc, tup)
			if err != nil || !ok {
				return fmt.Errorf("ModelCheck = %v, %v", ok, err)
			}
		case 3:
			if !s.NonEmpty(doc) {
				return fmt.Errorf("NonEmpty = false")
			}
		}
		return nil
	})
}

func TestSharedReflSpannerConcurrentUse(t *testing.T) {
	doc := []byte("abcab")
	ref := MustCompile("!x{(a|b)*}c!y{&x}", Options{Alphabet: []byte("abc")})
	want := ref.Eval(doc)
	tup := want.Tuples()[0]

	s := MustCompile("!x{(a|b)*}c!y{&x}", Options{Alphabet: []byte("abc")})
	runShared(t, 6, func(g, rep int) error {
		switch (g + rep) % 3 {
		case 0:
			if got := s.Eval(doc); !got.Equal(want) {
				return fmt.Errorf("refl Eval = %v, want %v", got, want)
			}
		case 1:
			ok, err := s.ModelCheck(doc, tup)
			if err != nil || !ok {
				return fmt.Errorf("refl ModelCheck = %v, %v", ok, err)
			}
		case 2:
			if !s.NonEmpty(doc) {
				return fmt.Errorf("refl NonEmpty = false")
			}
		}
		return nil
	})
}

func TestSharedQueryConcurrentEval(t *testing.T) {
	doc := []byte("ab,ab")
	opts := Options{Alphabet: []byte("ab,")}
	build := func() *Query {
		pair := MustCompile("!x{(a|b)+},!y{(a|b)+}", opts)
		return MustQ(pair).SelectEqual("x", "y").Project("x")
	}
	want := build().Eval(doc)

	q := build()
	runShared(t, 6, func(g, rep int) error {
		if got := q.Eval(doc); !got.Equal(want) {
			return fmt.Errorf("Query.Eval = %v, want %v", got, want)
		}
		return nil
	})
}

// TestSharedMaterializingQueryConcurrentUse: the row operators of the
// materializing backend keep nothing outside a call, so one planned query
// with residual algebra serves every verb from 8 goroutines at once.
func TestSharedMaterializingQueryConcurrentUse(t *testing.T) {
	doc := serviceLog(2<<10, 3)
	d := CompressDocument(doc)
	want := dupQuery(Options{}).EvalNaive(doc)
	if want.Len() == 0 {
		t.Fatal("the log has no repeated message: the test exercises nothing")
	}

	q := dupQuery(Options{})
	if q.Streaming() {
		t.Fatalf("the plan does not materialize:\n%s", q.Explain())
	}
	runShared(t, 6, func(g, rep int) error {
		switch (g + rep) % 4 {
		case 0:
			if got := q.Eval(doc); !got.Equal(want) {
				return fmt.Errorf("Eval = %v, want %v", got, want)
			}
		case 1:
			if n := q.Count(doc); n != want.Len() {
				return fmt.Errorf("Count = %d, want %d", n, want.Len())
			}
		case 2:
			n := 0
			q.Enumerate(doc, func(tu Tuple) bool { n++; return want.Contains(tu) })
			if n != want.Len() {
				return fmt.Errorf("Enumerate yielded %d tuples of the result, want %d", n, want.Len())
			}
		case 3:
			if got := q.EvalCompressed(d); !got.Equal(want) {
				return fmt.Errorf("EvalCompressed = %v, want %v", got, want)
			}
		}
		return nil
	})
}

func TestSharedNormalFormConcurrentEval(t *testing.T) {
	doc := []byte("ab,ab")
	opts := Options{Alphabet: []byte("ab,")}
	pair := MustCompile("!x{(a|b)+},!y{(a|b)+}", opts)
	q := MustQ(pair).SelectEqual("x", "y").Project("x")
	want := q.Eval(doc)
	nf, err := q.Normalize()
	if err != nil {
		t.Fatal(err)
	}

	runShared(t, 6, func(g, rep int) error {
		if got := nf.Eval(doc); !got.Equal(want) {
			return fmt.Errorf("NormalForm.Eval = %v, want %v", got, want)
		}
		return nil
	})
}

// TestSharedSpannerEnumerateEarlyStop exercises concurrent early
// termination: aborted enumerations must not corrupt shared state for the
// other goroutines.
func TestSharedSpannerEnumerateEarlyStop(t *testing.T) {
	s := MustCompile(".*!x{ab}.*", Options{Alphabet: []byte("ab")})
	doc := []byte("abababab")
	total := MustCompile(".*!x{ab}.*", Options{Alphabet: []byte("ab")}).Count(doc)

	runShared(t, 6, func(g, rep int) error {
		stopAt := 1 + (g+rep)%3
		n := 0
		s.Enumerate(doc, func(Tuple) bool { n++; return n < stopAt })
		if n != stopAt && n != total {
			return fmt.Errorf("early-stop enumeration yielded %d tuples", n)
		}
		return nil
	})
}

// TestSharedIndexConcurrentUse shares one compressed-evaluation Index
// across 8 goroutines over several SLP-compressed documents with shared
// structure. Every goroutine must observe exactly the sequential
// results; with -race this also proves the shared node cache is
// synchronized.
func TestSharedIndexConcurrentUse(t *testing.T) {
	s := MustCompile(".*!x{ab}.*", Options{Alphabet: []byte("ab")})
	base := CompressDocument([]byte("abab"))
	docs := make([]*Document, 5)
	for i := range docs {
		docs[i] = RepeatDocument(base, int64(30+i))
	}
	// Sequential reference from a private spanner instance.
	refIx, err := MustCompile(".*!x{ab}.*", Options{Alphabet: []byte("ab")}).Index()
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*Relation, len(docs))
	wantExact := make([]string, len(docs))
	for i, d := range docs {
		want[i] = refIx.Eval(d)
		wantExact[i] = refIx.ExactCount(d).String()
	}

	ix, err := s.Index()
	if err != nil {
		t.Fatal(err)
	}
	runShared(t, 4, func(g, rep int) error {
		i := (g + rep) % len(docs)
		switch (g + rep) % 4 {
		case 0:
			if got := ix.Eval(docs[i]); !got.Equal(want[i]) {
				return fmt.Errorf("Index.Eval(doc %d) differs from sequential", i)
			}
		case 1:
			if got := ix.Count(docs[i]); got != want[i].Len() {
				return fmt.Errorf("Index.Count(doc %d) = %d, want %d", i, got, want[i].Len())
			}
		case 2:
			if !ix.NonEmpty(docs[i]) {
				return fmt.Errorf("Index.NonEmpty(doc %d) = false", i)
			}
		case 3:
			if got := ix.ExactCount(docs[i]).String(); got != wantExact[i] {
				return fmt.Errorf("Index.ExactCount(doc %d) = %s, want %s", i, got, wantExact[i])
			}
		}
		return nil
	})
}

// TestWarmDBParallelBatch warms a batch of documents with shared
// structure through one Index with Warm, then evaluates the batch
// on that Index from 4 goroutines at once; with -race this proves the
// warmed shared tables are read without races.
func TestWarmDBParallelBatch(t *testing.T) {
	s := MustCompile(".*!x{ab}.*", Options{Alphabet: []byte("ab")})
	base := CompressDocument([]byte("abab"))
	var docs []*Document
	for i := 0; i < 4; i++ {
		docs = append(docs, RepeatDocument(base, int64(20+8*i)))
	}
	ix, err := s.Index()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		ix.Warm(d)
	}
	want := make([]int, len(docs))
	for i, d := range docs {
		want[i] = s.Count(d.Bytes()) // the plain-text path as reference
	}

	errs := make(chan error, len(docs))
	var wg sync.WaitGroup
	for g := range docs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range docs {
				i := (g + k) % len(docs)
				n := 0
				ix.Enumerate(docs[i], func(Tuple) bool { n++; return true })
				evaled, counted := ix.Eval(docs[i]).Len(), ix.Count(docs[i])
				if evaled != want[i] || n != want[i] || counted != want[i] {
					errs <- fmt.Errorf("doc %d: Eval %d, Enumerate %d, Count %d tuples, want %d",
						i, evaled, n, counted, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

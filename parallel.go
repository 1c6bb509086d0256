package docspanner

// Parallel evaluation engine. Two scaling axes from the survey's own
// machinery:
//
//   - batch parallelism: a compiled spanner (or query) is safe for
//     concurrent use, so a batch of documents can be evaluated by a
//     bounded worker pool (EvalDocs, EnumerateDocs) — the evaluation
//     problems are "embarrassingly parallel" across documents, in line
//     with the data-complexity landscape of Peterfreund et al.
//     ("Complexity Bounds for Relational Algebra over Document Spanners");
//   - document sharding: split-correctness (Doleschal et al., PODS 2019;
//     internal/split) says exactly when a single large document can be
//     cut into shards by a splitter spanner and evaluated shard-by-shard
//     with identical results. EvalSharded runs that pipeline with the
//     shards evaluated in parallel and the extracted spans shifted back
//     to whole-document coordinates.
//
// All entry points take a context for cancellation and return results in
// a deterministic order independent of goroutine scheduling.

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"docspanner/internal/spans"
	"docspanner/internal/split"
)

// shardSpans computes the distinct spans the splitter assigns to splitVar
// on doc, in document order. It is the facade-level counterpart of
// internal/split.Splits, but runs on the spanner's constant-delay
// enumerator (linear preprocessing, memoized determinization) instead of
// the naive materializing evaluation, so shard discovery stays linear in
// |doc| + #shards even on large documents.
func shardSpans(splitter *Spanner, splitVar Var, doc []byte) []Span {
	seen := map[Span]bool{}
	var out []Span
	splitter.Enumerate(doc, func(t Tuple) bool {
		if sp, ok := t[splitVar]; ok && !seen[sp] {
			seen[sp] = true
			out = append(out, sp)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// Evaluator is the evaluation interface shared by *Spanner, *Query, and
// *NormalForm: anything that materializes a span relation on a document.
// Implementations used with this package must be safe for concurrent
// Eval, which all three are.
type Evaluator interface {
	Eval(doc []byte) *Relation
}

// StreamEvaluator is the streaming counterpart of Evaluator: anything
// that enumerates result tuples on a document with early termination.
// *Spanner and *Query satisfy it (both stream through their query
// plans); implementations must be safe for concurrent Enumerate.
type StreamEvaluator interface {
	Enumerate(doc []byte, f func(t Tuple) bool)
}

// CompressedEvaluator evaluates over SLP-compressed documents without
// decompressing them wholesale: *Index (a single regular spanner) and
// *Query (a whole plan, decompressing lazily only where an operator
// needs the text) satisfy it.
type CompressedEvaluator interface {
	EvalCompressed(d *Document) *Relation
}

// CompressedStreamEvaluator streams tuples over SLP-compressed
// documents; *Index and *Query satisfy it.
type CompressedStreamEvaluator interface {
	EnumerateCompressed(d *Document, f func(t Tuple) bool)
}

// ParallelOptions configures the worker pool of the batch entry points.
type ParallelOptions struct {
	// Workers bounds the number of goroutines evaluating concurrently.
	// Values < 1 default to runtime.GOMAXPROCS(0).
	Workers int
}

// workers resolves the pool size for n jobs.
func (o ParallelOptions) workers(n int) int {
	w := o.Workers
	if w < 1 {
		w = runtime.GOMAXPROCS(0)
	}
	if n > 0 && w > n {
		w = n
	}
	return w
}

// EvalDocs evaluates ev on every document of the batch with a bounded
// worker pool and returns one relation per document, in input order
// (results[i] is the relation of docs[i], regardless of which worker
// computed it). On cancellation it stops scheduling new documents, waits
// for in-flight evaluations, and returns the context's error.
func EvalDocs(ctx context.Context, ev Evaluator, docs [][]byte, opts ParallelOptions) ([]*Relation, error) {
	return evalBatch(ctx, len(docs), opts, func(i int) *Relation { return ev.Eval(docs[i]) })
}

// evalBatch is the worker-pool skeleton shared by EvalDocs and
// EvalCompressedDocs.
func evalBatch(ctx context.Context, n int, opts ParallelOptions, eval func(i int) *Relation) ([]*Relation, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]*Relation, n)
	if err := runPool(ctx, n, opts.workers(n), func(i int) { out[i] = eval(i) }); err != nil {
		return nil, err
	}
	return out, nil
}

// EnumerateDocs enumerates s (a spanner, query, or any other
// StreamEvaluator) on every document of the batch in parallel and
// delivers the tuples to f in deterministic order: documents in input
// order, and within each document in the evaluator's enumeration order
// (fully deterministic for regular spanners). f receives the document's
// index alongside each tuple; returning false stops the whole batch —
// workers observe the stop promptly and abandon the documents they are
// enumerating. Returns the context's error on cancellation, nil on
// completion or early stop.
func EnumerateDocs(ctx context.Context, s StreamEvaluator, docs [][]byte, opts ParallelOptions, f func(doc int, t Tuple) bool) error {
	return enumerateBatch(ctx, len(docs), opts, func(i int, yield func(Tuple) bool) { s.Enumerate(docs[i], yield) }, f)
}

// tupleBufPool recycles the per-document tuple buffers of
// enumerateBatch across requests: a batch-heavy server otherwise
// allocates (and regrows) one fresh slice per document per request.
var tupleBufPool = sync.Pool{
	New: func() any {
		s := make([]Tuple, 0, 64)
		return &s
	},
}

// putTupleBuf clears the tuple references (so pooled buffers do not pin
// result tuples past delivery) and returns the buffer to the pool.
func putTupleBuf(ts []Tuple) {
	for i := range ts {
		ts[i] = nil
	}
	ts = ts[:0]
	tupleBufPool.Put(&ts)
}

// enumerateBatch is the worker-pool skeleton shared by EnumerateDocs and
// EnumerateCompressedDocs: it runs enumerate(i, yield) for every i on a
// bounded pool and delivers the collected tuples to f in input order.
// Collection buffers come from tupleBufPool and go back after delivery.
func enumerateBatch(ctx context.Context, n int, opts ParallelOptions, enumerate func(i int, yield func(Tuple) bool), f func(doc int, t Tuple) bool) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if n == 0 {
		return ctx.Err()
	}
	var stop atomic.Bool
	var next atomic.Int64
	ready := make([]chan []Tuple, n)
	for i := range ready {
		ready[i] = make(chan []Tuple, 1)
	}
	var wg sync.WaitGroup
	for k := opts.workers(n); k > 0; k-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || stop.Load() || ctx.Err() != nil {
					return
				}
				ts := (*tupleBufPool.Get().(*[]Tuple))[:0]
				enumerate(i, func(t Tuple) bool {
					if stop.Load() {
						return false
					}
					ts = append(ts, t)
					return true
				})
				ready[i] <- ts
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	var err error
deliver:
	for i := 0; i < n; i++ {
		var ts []Tuple
		select {
		case ts = <-ready[i]:
		case <-ctx.Done():
			err = ctx.Err()
			break deliver
		case <-done:
			// Workers exited early; all completed sends are buffered, so
			// either document i's tuples are already here or it was never
			// evaluated (stop or cancellation).
			select {
			case ts = <-ready[i]:
			default:
				err = ctx.Err()
				break deliver
			}
		}
		stopped := false
		for _, t := range ts {
			if !f(i, t) {
				stopped = true
				break
			}
		}
		putTupleBuf(ts)
		if stopped {
			break deliver
		}
	}
	stop.Store(true)
	<-done
	return err
}

// EvalCompressedDocs evaluates a CompressedEvaluator — an Index, or a
// Query planned over compressed documents — on a batch of SLP-compressed
// documents with a bounded worker pool and returns one relation per
// document, in input order. An Index's node cache is shared by all
// workers: SLP nodes shared between documents (or added by CDE edits)
// are processed by whichever worker reaches them first and hit the
// cache everywhere else.
func EvalCompressedDocs(ctx context.Context, ev CompressedEvaluator, docs []*Document, opts ParallelOptions) ([]*Relation, error) {
	return evalBatch(ctx, len(docs), opts, func(i int) *Relation { return ev.EvalCompressed(docs[i]) })
}

// EnumerateCompressedDocs enumerates a CompressedStreamEvaluator on a
// batch of SLP-compressed documents in parallel, delivering tuples to f
// in deterministic order (documents in input order, tuples in the
// evaluator's enumeration order); returning false from f stops the
// batch. With an Index the shared node cache makes the per-document
// preprocessing incremental across the batch.
func EnumerateCompressedDocs(ctx context.Context, ev CompressedStreamEvaluator, docs []*Document, opts ParallelOptions, f func(doc int, t Tuple) bool) error {
	return enumerateBatch(ctx, len(docs), opts, func(i int, yield func(Tuple) bool) { ev.EnumerateCompressed(docs[i], yield) }, f)
}

// ShardOptions configures EvalSharded.
type ShardOptions struct {
	// Workers bounds the number of shards evaluated concurrently.
	// Values < 1 default to runtime.GOMAXPROCS(0).
	Workers int
	// Verify decides split-correctness of (spanner, splitter) exactly —
	// via the equivalence of split.Compose's product automaton with the
	// spanner — before any shard is evaluated, and fails with an error
	// (including a counterexample document when one is found) if the
	// sharded evaluation could differ from the direct one. Requires a
	// regular spanner. When false, split-correctness is assumed: the
	// caller has either checked it once with CheckSplitCorrect or accepts
	// per-shard semantics.
	Verify bool
	// VerifyAlphabet is the alphabet for the counterexample search when
	// verification fails; it defaults to the union of the two automata's
	// alphabets.
	VerifyAlphabet []byte
	// VerifyMaxWitness bounds the counterexample search depth (default 4).
	VerifyMaxWitness int
}

// EvalSharded evaluates p on one large document by sharding: the splitter
// (a regular spanner binding splitVar, e.g. a line or record splitter)
// determines the shards, each shard's factor is evaluated in parallel as
// its own document, and the extracted spans are shifted back to
// whole-document coordinates. The result is deterministic and — whenever
// p is split-correct with respect to the splitter (ShardOptions.Verify
// decides this exactly) — equal to p.Eval(doc).
//
// p may be a refl-spanner; verification, being an equivalence check on
// automata, is only available for regular p.
func EvalSharded(ctx context.Context, p, splitter *Spanner, splitVar Var, doc []byte, opts ShardOptions) (*Relation, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if !splitter.IsRegular() {
		return nil, fmt.Errorf("docspanner: EvalSharded: splitter must be a regular spanner")
	}
	if !splitter.nfa.Vars.Contains(splitVar) {
		return nil, fmt.Errorf("docspanner: EvalSharded: splitter does not bind %s", splitVar)
	}
	if opts.Verify {
		correct, counterexample, err := CheckSplitCorrect(p, splitter, splitVar, opts.VerifyAlphabet, opts.verifyMaxWitness())
		if err != nil {
			return nil, err
		}
		if !correct {
			if counterexample != nil {
				return nil, fmt.Errorf("docspanner: EvalSharded: %q is not split-correct w.r.t. the splitter (differs on %q)", p.Pattern(), counterexample)
			}
			return nil, fmt.Errorf("docspanner: EvalSharded: %q is not split-correct w.r.t. the splitter", p.Pattern())
		}
	}
	shards := shardSpans(splitter, splitVar, doc)
	rels := make([]*Relation, len(shards))
	err := runPool(ctx, len(shards), opts.pool(len(shards)), func(i int) {
		sh := shards[i]
		shifted := spans.NewRelation()
		p.Enumerate(sh.Content(doc), func(t Tuple) bool {
			nt := make(Tuple, len(t))
			for v, sp := range t {
				nt[v] = NewSpan(sp.Begin+sh.Begin-1, sp.End+sh.Begin-1)
			}
			shifted.Add(nt)
			return true
		})
		rels[i] = shifted
	})
	if err != nil {
		return nil, err
	}
	// Merge in document order: deterministic regardless of scheduling.
	out := spans.NewRelation()
	for _, rel := range rels {
		for _, t := range rel.Tuples() {
			out.Add(t)
		}
	}
	return out, nil
}

func (o ShardOptions) pool(n int) int {
	return ParallelOptions{Workers: o.Workers}.workers(n)
}

func (o ShardOptions) verifyMaxWitness() int {
	if o.VerifyMaxWitness > 0 {
		return o.VerifyMaxWitness
	}
	return 4
}

// SplitSpans returns the shard spans the splitter extracts on doc via
// splitVar, in document order — the shards EvalSharded would evaluate.
func SplitSpans(splitter *Spanner, splitVar Var, doc []byte) ([]Span, error) {
	if !splitter.IsRegular() {
		return nil, fmt.Errorf("docspanner: SplitSpans: splitter must be a regular spanner")
	}
	if !splitter.nfa.Vars.Contains(splitVar) {
		return nil, fmt.Errorf("docspanner: SplitSpans: splitter does not bind %s", splitVar)
	}
	return shardSpans(splitter, splitVar, doc), nil
}

// CheckSplitCorrect decides split-correctness of p with respect to the
// splitter — exactly, by compiling the split-then-extract pipeline into a
// single regular spanner (internal/split.Compose) and checking spanner
// equivalence (Doleschal et al., PODS 2019; decidable for regular
// spanners, in contrast to core spanners). When the answer is negative, a
// counterexample document is searched for by bounded enumeration over
// alphabet (default: the union of the two automata's alphabets) up to
// length maxWitness. The check is independent of any document: one
// positive answer licenses EvalSharded with Verify=false forever after.
func CheckSplitCorrect(p, splitter *Spanner, splitVar Var, alphabet []byte, maxWitness int) (correct bool, counterexample []byte, err error) {
	if !p.IsRegular() {
		return false, nil, fmt.Errorf("docspanner: CheckSplitCorrect needs a regular spanner (split-correctness is undecidable beyond)")
	}
	if !splitter.IsRegular() {
		return false, nil, fmt.Errorf("docspanner: CheckSplitCorrect: splitter must be a regular spanner")
	}
	if alphabet == nil {
		alphabet = unionAlphabet(p.nfa.Alphabet(), splitter.nfa.Alphabet())
	}
	res, err := split.Correct(p.nfa, splitter.nfa, splitVar, alphabet, maxWitness)
	if err != nil {
		return false, nil, err
	}
	return res.Correct, res.Counterexample, nil
}

func unionAlphabet(a, b []byte) []byte {
	seen := [256]bool{}
	out := make([]byte, 0, len(a)+len(b))
	for _, bs := range [][]byte{a, b} {
		for _, c := range bs {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	return out
}

// runPool runs job(i) for i in [0,n) on w workers, respecting ctx: once
// the context is done no new jobs start, in-flight jobs finish, and the
// context's error is returned.
func runPool(ctx context.Context, n, w int, job func(i int)) error {
	if n == 0 {
		return ctx.Err()
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			job(i)
		}
		return nil
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				job(i)
			}
		}()
	}
	var err error
feed:
	for i := 0; i < n; i++ {
		select {
		case jobs <- i:
		case <-ctx.Done():
			err = ctx.Err()
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	return err
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"docspanner"
	"docspanner/internal/algebra"
	"docspanner/internal/automata"
	"docspanner/internal/enum"
	"docspanner/internal/plan"
	"docspanner/internal/qsyntax"
	"docspanner/internal/regex"
	"docspanner/internal/slpmatch"
	"docspanner/internal/spans"
	"docspanner/internal/storage"
	"docspanner/internal/views"
)

// model replays ops in-process: source B of the per-layer metrics. For
// every op it makes the calls the server's handler makes, each call into
// a layer wrapped in a span; where the facade hides the layers (one
// EnumerateContext is preprocessing plus enumeration), it also makes the
// layers' calls directly, so the facade's time can be split.
type model struct {
	tr  *tracer
	op  int    // ordinal of the op being replayed
	dir string // data dir of the disk backend; "" on the memory backend

	store storage.Backend
	db    *docspanner.DocDB
	docs  map[string]*modelDoc
	qs    map[string]*modelQuery
	views *views.Set
	// viewsOf lists the queries with a live view per document.
	viewsOf map[string][]string

	userBytes int64 // document bytes and edit expressions written
	writes    int   // mutations logged
	// compBytes of text went through Re-Pair and came out as compNodes
	// grammar nodes.
	compBytes, compNodes int
	// facadeNs and layerNs are the two sides of the facade-sum check, over
	// the reads whose plan is a single scan.
	facadeNs, layerNs int64
	// lastEval keeps the largest materialized result for the spans probes.
	lastEval []spans.Tuple
}

type modelDoc struct {
	plain      []byte // nil until asked for when an edit made the document
	doc        *docspanner.Document
	compressed bool
	version    int
}

func (d *modelDoc) bytes() []byte {
	if d.plain == nil {
		d.plain = d.doc.Bytes()
	}
	return d.plain
}

type modelQuery struct {
	q *docspanner.Query
	// Set when the plan is a single regular scan: what the layers below
	// the facade evaluate.
	deva *automata.DEVA
	vars spans.VarSet
	// six is the layer's own index over deva; fix is the facade's, over
	// the facade's own copy of the automaton. Their memo caches are apart,
	// so the model warms both whenever the server would warm one.
	six *slpmatch.Index
	fix *docspanner.Index
	// patterns are the compiled operands, for the join probe.
	patterns []*automata.NFA
}

// newModel replays on the backend the workload's server runs on: the
// disk backend (fsync always) in dir, or the memory backend when dir is
// empty. Ops are numbered from firstOp.
func newModel(tr *tracer, dir string, firstOp int) (*model, error) {
	var store storage.Backend = storage.NewMemory()
	if dir != "" {
		disk, err := storage.OpenDisk(storage.DiskOptions{Dir: dir, Fsync: storage.FsyncAlways, SnapshotBytes: -1})
		if err != nil {
			return nil, err
		}
		store = disk
	}
	if _, err := store.Load(); err != nil {
		return nil, err
	}
	return &model{
		tr: tr, op: firstOp - 1, dir: dir, store: store, db: docspanner.NewDocDB(),
		docs: map[string]*modelDoc{}, qs: map[string]*modelQuery{},
		views: views.NewSet(views.Config{}), viewsOf: map[string][]string{},
	}, nil
}

// span times one layer call of the current op.
func (m *model) span(parent int, name string, f func() int) int {
	return m.tr.span(parent, m.op, name, f)
}

// logged times a storage append and the durability barrier after it.
// The memory backend does neither, so there is nothing to time.
func (m *model) logged(parent int, name string, userBytes int, appendRec func() error) error {
	if m.dir == "" {
		return nil
	}
	var err error
	m.span(parent, name, func() int { err = appendRec(); return userBytes })
	if err == nil {
		m.span(parent, "storage.Sync", func() int { err = m.store.Sync(); return 1 })
	}
	m.userBytes += int64(userBytes)
	m.writes++
	return err
}

// exec replays one op. An error means the model cannot follow the
// script, which is a bug in the harness, not a measurement.
func (m *model) exec(o *op) error {
	m.op++
	var err error
	root := m.tr.begin(0, m.op, "op."+o.kind.String())
	switch o.kind {
	case opPutQuery:
		err = m.putQuery(root, o)
	case opDelQuery:
		delete(m.qs, o.query)
		err = m.logged(root, "storage.DeleteQuery", 0, func() error { return m.store.DeleteQuery(o.query) })
	case opExplain:
		m.span(root, "plan.Explain", func() int { return len(m.qs[o.query].q.Explain()) })
	case opPutDoc:
		err = m.putDoc(root, o)
	case opEdit:
		err = m.edit(root, o)
	case opWarm:
		d, q := m.docs[o.doc], m.qs[o.query]
		m.span(root, "slpmatch.Warm", func() int { q.fix.Warm(d.doc); return d.doc.GrammarSize() })
	case opViewPut:
		err = m.viewPut(root, o)
	case opChanges:
		v, _ := m.views.Get(o.doc, o.query)
		m.span(root, "views.Changes", func() int {
			_, _, added, removed, _ := v.Changes(max(m.docs[o.doc].version-1, 1))
			return len(added) + len(removed)
		})
	case opSnapshot:
		if m.dir != "" {
			m.span(root, "storage.Snapshot", func() int { err = m.store.Snapshot(); return 1 })
		}
	case opEval, opCount, opStream:
		err = m.read(root, o)
	}
	m.tr.end(root, 0)
	if err != nil {
		return fmt.Errorf("replaying %s %s in-process: %w", o.method, o.path, err)
	}
	return nil
}

// exprOver rebuilds the algebra expression of a query source over the
// operands the model compiled itself, mirroring qsyntax's prefix syntax.
// The operands appear in src in order, verbatim.
func exprOver(src string, patterns []string, prims []algebra.Prim) (algebra.Expr, error) {
	next := 0
	var parse func() (algebra.Expr, error)
	eat := func(tok string) error {
		src = strings.TrimLeft(src, " ")
		if !strings.HasPrefix(src, tok) {
			return fmt.Errorf("expected %q at %q", tok, src)
		}
		src = src[len(tok):]
		return nil
	}
	varList := func() spans.VarSet {
		i := strings.IndexByte(src, ';')
		var vs []spans.Var
		for _, v := range strings.Split(src[:i], ",") {
			vs = append(vs, spans.Var(strings.TrimSpace(v)))
		}
		src = src[i:]
		return spans.NewVarSet(vs...)
	}
	parse = func() (algebra.Expr, error) {
		src = strings.TrimLeft(src, " ")
		for _, kw := range []string{"union", "join", "project", "seleq"} {
			if !strings.HasPrefix(src, kw+"(") {
				continue
			}
			src = src[len(kw)+1:]
			var vars spans.VarSet
			var l algebra.Expr
			var err error
			if kw == "project" || kw == "seleq" {
				vars = varList()
			} else if l, err = parse(); err != nil {
				return nil, err
			}
			if err := eat(";"); err != nil {
				return nil, err
			}
			r, err := parse()
			if err != nil {
				return nil, err
			}
			switch kw {
			case "union":
				l = algebra.Union{L: l, R: r}
			case "join":
				l = algebra.Join{L: l, R: r}
			case "project":
				l = algebra.Project{Sub: r, Keep: vars}
			case "seleq":
				l = algebra.SelectEq{Sub: r, Z: vars}
			}
			return l, eat(")")
		}
		if next == len(patterns) || !strings.HasPrefix(src, patterns[next]) {
			return nil, fmt.Errorf("operand %d is not at %q", next, src)
		}
		src = src[len(patterns[next]):]
		next++
		return prims[next-1], nil
	}
	return parse()
}

func (m *model) putQuery(root int, o *op) error {
	var spec struct {
		Src      string
		Alphabet string
		Plan     *struct {
			MaxDeterminizeStates int `json:"max_determinize_states"`
		}
	}
	if err := json.Unmarshal(o.body, &spec); err != nil {
		return err
	}
	// The parts qsyntax.Parse is made of, timed separately.
	prims := make([]algebra.Prim, len(o.patterns))
	mq := &modelQuery{}
	for i, p := range o.patterns {
		var err error
		m.span(root, "regex.Parse", func() int { prims[i].Src, err = regex.Parse(p); return len(p) })
		if err != nil {
			return err
		}
		m.span(root, "regex.Compile", func() int {
			prims[i].A, err = regex.Compile(prims[i].Src, regex.Options{Alphabet: []byte(spec.Alphabet)})
			return len(p)
		})
		if err != nil {
			return err
		}
		mq.patterns = append(mq.patterns, prims[i].A)
	}
	var err error
	m.span(root, "qsyntax.Parse", func() int {
		mq.q, err = qsyntax.Parse(spec.Src, docspanner.Options{Alphabet: []byte(spec.Alphabet)})
		return len(spec.Src)
	})
	if err != nil {
		return err
	}
	popts := plan.Options{NoCache: true}
	if spec.Plan != nil {
		popts.MaxDeterminizeStates = spec.Plan.MaxDeterminizeStates
		mq.q = mq.q.WithPlan(docspanner.PlanOptions{MaxDeterminizeStates: spec.Plan.MaxDeterminizeStates})
	}
	// The server plans inside its first Lint call; planning first keeps
	// the two apart.
	m.span(root, "docspanner.plan", func() int { mq.q.Streaming(); return 1 })
	m.span(root, "lint.Lint", func() int { return len(mq.q.Lint()) })

	// The planner's own parts, on an expression over the model's operands.
	expr, err := exprOver(spec.Src, o.patterns, prims)
	if err != nil {
		return err
	}
	var pl *plan.Planned
	m.span(root, "plan.New", func() int { pl = plan.New(expr, popts); return 1 })
	m.span(root, "algebra.rewrite", func() int {
		pol, bc := algebra.FusePolicy{}, algebra.NewBoundCache()
		lp := algebra.PruneEmpty(algebra.FromExpr(expr))
		lp = algebra.PushDownProjections(algebra.PushDownSelections(algebra.DedupUnions(lp, pol)))
		lp = algebra.FuseRegular(algebra.PruneEmpty(algebra.DropNoopSelects(lp, pol, bc)), pol)
		algebra.FuseRegular(algebra.PruneEmpty(algebra.DropNoopSelects(lp, pol, bc)), pol)
		return 1
	})
	var scans func(p *algebra.Plan)
	scans = func(p *algebra.Plan) {
		if p.Kind == algebra.PScan {
			m.span(root, "automata.Determinize", func() int { return automata.Determinize(p.Auto).NumStates() })
		}
		for _, c := range p.Children {
			scans(c)
		}
	}
	scans(pl.Logical())
	if nfa, ok := pl.SingleScan(); ok {
		mq.deva, mq.vars = automata.DeterminizeCached(nfa), nfa.Vars
		mq.six = slpmatch.NewIndex(mq.deva)
		if mq.fix, err = mq.q.Index(); err != nil {
			return err
		}
	}
	m.qs[o.query] = mq
	return m.logged(root, "storage.PutQuery", 0, func() error { return m.store.PutQuery(o.query, o.body, time.Now()) })
}

func (m *model) putDoc(root int, o *op) error {
	compress := strings.Contains(o.path, "compress=1")
	d := &modelDoc{plain: o.body, compressed: compress, version: 1}
	if old := m.docs[o.doc]; old != nil {
		d.version = old.version + 1
	}
	if compress {
		m.span(root, "slp.Compress", func() int { d.doc = docspanner.CompressDocument(o.body); return len(o.body) })
		m.compBytes += len(o.body)
		m.compNodes += d.doc.GrammarSize()
	} else {
		m.span(root, "slp.FromBytes", func() int { d.doc = docspanner.DocumentFromBytes(o.body); return len(o.body) })
	}
	m.db.Add(o.doc, d.doc)
	m.docs[o.doc] = d
	return m.logged(root, "storage.PutDoc", len(o.body), func() error {
		return m.store.PutDoc(o.doc, o.body, d.doc, compress, d.version, time.Now())
	})
}

func (m *model) edit(root int, o *op) error {
	var body struct{ Expr string }
	if err := json.Unmarshal(o.body, &body); err != nil {
		return err
	}
	old := m.docs[o.doc]
	d := &modelDoc{compressed: true, version: 1}
	if old != nil {
		d.version = old.version + 1
	}
	var err error
	m.span(root, "slp.CDE", func() int { d.doc, err = m.db.Edit(o.doc, body.Expr); return 1 })
	if err != nil {
		return err
	}
	m.docs[o.doc] = d
	if err := m.logged(root, "storage.EditDoc", len(body.Expr), func() error {
		return m.store.EditDoc(o.doc, body.Expr, d.doc, d.version, time.Now())
	}); err != nil {
		return err
	}
	// The server's sync refresh, with the incremental warm it does inside
	// Refresh made first and on its own, so Refresh's span is what is left:
	// the exact count, the materialization and the history.
	for _, q := range m.viewsOf[o.doc] {
		v, _ := m.views.Get(o.doc, q)
		m.span(root, "slpmatch.WarmDelta", func() int { return m.qs[q].six.WarmDelta(old.doc.Node(), d.doc.Node()).Recomputed })
		m.qs[q].fix.WarmDelta(old.doc, d.doc)
		m.span(root, "views.Refresh", func() int { v.Refresh(d.doc, d.version); return 1 })
		// Refresh enumerated the whole result through the facade's index
		// and left its memo that warm; leave the layer's index the same.
		m.qs[q].six.Each(d.doc.Node(), func(spans.Tuple) bool { return true })
	}
	return nil
}

func (m *model) viewPut(root int, o *op) error {
	d := m.docs[o.doc]
	v, _, err := m.views.Register(o.doc, o.query, m.qs[o.query].fix, func() error { return m.store.PutView(o.doc, o.query) })
	if err != nil {
		return err
	}
	m.viewsOf[o.doc] = append(m.viewsOf[o.doc], o.query)
	m.qs[o.query].six.Warm(d.doc.Node())
	m.span(root, "views.Refresh", func() int { v.Refresh(d.doc, d.version); return 1 })
	return nil
}

// read replays eval, count and stream: the facade call the handler
// makes, and — when the plan is one scan — the layer calls below it.
func (m *model) read(root int, o *op) error {
	d, mq := m.docs[o.doc], m.qs[o.query]
	ctx := context.Background()
	var got []spans.Tuple
	collect := func(t docspanner.Tuple) bool {
		got = append(got, t)
		return o.limit == 0 || len(got) < o.limit
	}
	var err error
	facadeName := "docspanner.Enumerate"
	if o.kind == opCount {
		facadeName = "docspanner.Count"
	}
	facade := func() int {
		got = got[:0]
		return m.span(root, facadeName, func() int {
			switch {
			case o.kind == opCount && d.compressed:
				_, err = mq.q.CountCompressedContext(ctx, d.doc)
			case o.kind == opCount:
				_, err = mq.q.CountContext(ctx, d.bytes())
			case d.compressed:
				err = mq.q.EnumerateCompressedContext(ctx, d.doc, collect)
			default:
				err = mq.q.EnumerateContext(ctx, d.bytes(), collect)
			}
			return len(got)
		})
	}
	layers := func() (ids []int) {
		n := 0
		each := func(spans.Tuple) bool { n++; return o.limit == 0 || n < o.limit }
		switch {
		case o.kind == opCount && d.compressed:
			ids = append(ids, m.span(root, "slpmatch.CountTotal", func() int { mq.six.CountTotal(d.doc.Node(), mq.vars, nil); return 1 }))
		case o.kind == opCount:
			ids = append(ids, m.span(root, "enum.CountTotal", func() int {
				if _, _, ok := enum.CountTotalFast(mq.deva, d.bytes(), mq.vars, nil); !ok {
					e := enum.NewEnumerator(mq.deva, d.bytes())
					e.CountTotal(mq.vars, nil)
					e.Release()
				}
				return len(d.bytes())
			}))
		case d.compressed:
			ids = append(ids, m.span(root, "slpmatch.Each", func() int { mq.six.Each(d.doc.Node(), each); return n }))
		default:
			var e *enum.Enumerator
			ids = append(ids,
				m.span(root, "enum.NewEnumerator", func() int { e = enum.NewEnumerator(mq.deva, d.bytes()); return len(d.bytes()) }),
				m.span(root, "enum.EachTotal", func() int { e.EachTotal(mq.vars, each); return n }))
			e.Release()
		}
		return ids
	}
	if mq.deva == nil {
		facade() // a materializing plan: nothing below the facade to call from outside
	} else {
		// Alternate which side runs first: the second benefits from the
		// caches the first warmed.
		var f int
		var ls []int
		if m.op%2 == 0 {
			f, ls = facade(), layers()
		} else {
			ls, f = layers(), facade()
		}
		m.facadeNs += m.tr.duration(f)
		for _, id := range ls {
			m.layerNs += m.tr.duration(id)
		}
	}
	if o.kind == opEval && err == nil {
		m.span(root, "spans.SortTuples", func() int { spans.SortTuples(got); return len(got) })
		if len(got) > len(m.lastEval) {
			m.lastEval = append([]spans.Tuple(nil), got...)
		}
	}
	return err
}

// finish closes the disk backend, measures what recovery costs and how
// much disk the replay left, and removes the directory.
func (m *model) finish() (recovery time.Duration, diskBytes int64, stats storage.Stats, err error) {
	stats = m.store.Stats()
	if err = m.store.Close(); err != nil || m.dir == "" {
		return
	}
	if diskBytes, err = dirBytes(m.dir); err != nil {
		return
	}
	m.op++
	id := m.span(0, "storage.OpenDisk+Load", func() int {
		var disk *storage.Disk
		if disk, err = storage.OpenDisk(storage.DiskOptions{Dir: m.dir, SnapshotBytes: -1}); err == nil {
			if _, err = disk.Load(); err == nil {
				err = disk.Close()
			}
		}
		return 1
	})
	return time.Duration(m.tr.duration(id)), diskBytes, stats, os.RemoveAll(m.dir)
}

package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
)

// numRounds timed rounds of identical composition follow one warm-up
// round. Every metric is computed per round and the median over the
// rounds is reported, with its dispersion beside it: the host is bursty
// on the scale of seconds, and one long measurement takes every burst in.
const (
	numRounds    = 12
	warmupShare  = 2  // the warm-up round runs 1/warmupShare of a round's units
	refSeconds   = 30 // --seconds at which the committed unit counts apply
	editedDoc    = "big"
	maxEditTotal = 1200 // the server keeps memo for every edited version
)

// workload is one traffic mix. build turns a seed and a size factor
// (--seconds / refSeconds) into the fixed script a run replays.
type workload struct {
	name  string
	why   string
	flags []string // spannerd flags; "{data}" becomes a temp dir
	fsync string   // flush policy, stated in the env block
	build func(rng *rand.Rand, scale float64) *script
}

// script is everything a run sends, as a pure function of the seed.
type script struct {
	setup  []*op    // fixture load, sent in order on one connection
	rounds [][]unit // rounds[0] is the warm-up
	views  []string // live views on editedDoc, checked at every barrier
}

var workloads = []workload{
	{
		name:  "serve_plain",
		why:   "prepared extraction over plain text (§2.5): enum, spans and the server's encode/HTTP path work; slp, slpmatch, storage, views idle; plan cache always hits",
		build: buildServePlain,
	},
	{
		name:  "serve_slp",
		why:   "prepared extraction over SLP-compressed logs (§4): slpmatch and the Boolean-matrix kernels work warm for reads, cold for the write share; enum idle; same encode/HTTP path as serve_plain",
		build: buildServeSLP,
	},
	{
		name:  "edit_views_disk",
		why:   "CDE edits beside reads on the disk backend (§4.3): slp CDE, slpmatch.WarmDelta, view refresh and diff, WAL append, fsync and snapshots work",
		flags: []string{"-data-dir", "{data}", "-fsync", "always", "-view-refresh", "sync"},
		fsync: "always",
		build: buildEditViews,
	},
	{
		name:  "register_adhoc",
		why:   "analyst sessions registering unique queries: qsyntax, regex, determinization, lint, rewrites and planning dominate; plan and DEVA caches miss by construction",
		build: buildRegisterAdhoc,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// scaled is a committed per-round count at the requested size.
func scaled(n int, scale float64) int { return max(1, int(float64(n)*scale+0.5)) }

// --- op constructors ---

func newOp(kind opKind, method, path string) *op {
	return &op{kind: kind, method: method, path: path, ticket: -1, want: -1}
}

// putQueryOp registers src under name. planSalt > 0 sets a planner
// budget nobody reaches to a value unique to the registration; see
// buildRegisterAdhoc for why.
func putQueryOp(name string, q querySource, planSalt int) *op {
	o := newOp(opPutQuery, "PUT", "/queries/"+name)
	src := q.src
	o.query, o.patterns = name, q.patterns
	spec := map[string]any{"src": src, "alphabet": logAlphabet}
	if planSalt > 0 {
		spec["plan"] = map[string]int{"max_determinize_states": adhocPlanBudget + planSalt}
	}
	o.body, _ = json.Marshal(spec) // strings and ints always marshal
	return o
}

func putDocOp(name string, d *logDoc, compress bool) *op {
	o := newOp(opPutDoc, "PUT", "/docs/"+name)
	if compress {
		o.path += "?compress=1"
	}
	o.body, o.doc, o.after = d.data, name, d
	return o
}

// editOp applies a CDE expression to doc; after is what it then holds.
func editOp(doc, expr string, after oracle) *op {
	o := newOp(opEdit, "POST", "/docs/"+doc+"/edit")
	o.body, _ = json.Marshal(map[string]string{"expr": expr})
	o.doc, o.after = doc, after
	return o
}

func warmOp(doc, query string) *op {
	o := newOp(opWarm, "POST", "/docs/"+doc+"/warm?query="+query)
	o.doc, o.query = doc, query
	return o
}

// Read kinds of the serving workloads, cycled in this order.
const (
	readEval = iota
	readCount
	readStreamAll
	readStreamFirst
	numReadKinds
)

// streamFirstLimit is the ?limit= of the "first tuples" stream read.
const streamFirstLimit = 10

// readOp builds read number kind of the cycle; streamAllLimit > 0 caps
// the content-free full stream (large compressed documents).

func readOp(kind int, query, doc string, streamAllLimit int) *op {
	target := "?query=" + url.QueryEscape(query) + "&doc=" + url.QueryEscape(doc)
	var o *op
	switch kind {
	case readEval:
		o = newOp(opEval, "GET", "/eval"+target)
	case readCount:
		o = newOp(opCount, "GET", "/count"+target)
	case readStreamAll:
		o = newOp(opStream, "GET", "/stream"+target+"&content=0")
		if streamAllLimit > 0 {
			o.path += fmt.Sprintf("&limit=%d", streamAllLimit)
			o.limit = streamAllLimit
		}
	case readStreamFirst:
		o = newOp(opStream, "GET", fmt.Sprintf("/stream%s&limit=%d", target, streamFirstLimit))
		o.limit = streamFirstLimit
	}
	o.doc, o.query = doc, query
	return o
}

// shuffled returns the ops as single-op units in a seeded order.
func shuffled(rng *rand.Rand, ops []*op) []unit {
	us := make([]unit, len(ops))
	for i, o := range ops {
		us[i] = unit{o}
	}
	rng.Shuffle(len(us), func(i, j int) { us[i], us[j] = us[j], us[i] })
	return us
}

// roundScale is the size factor of round r; round 0 is the shorter
// warm-up.
func roundScale(r int, scale float64) float64 {
	if r == 0 {
		return scale / warmupShare
	}
	return scale
}

// querySource is a query source with the raw patterns it is made of.
type querySource struct {
	src      string
	patterns []string
}

func rawSource(pattern string) querySource { return querySource{pattern, []string{pattern}} }

var preparedSources = map[string]querySource{
	"rec":    rawSource(srcRec),
	"denied": rawSource(srcDenied),
	"tok":    rawSource(srcTok),
	"dup":    {srcDup, []string{srcDupLeft, srcDupRight}},
}

func prepareQueries(names ...string) []*op {
	ops := make([]*op, len(names))
	for i, n := range names {
		ops[i] = putQueryOp(n, preparedSources[n], 0)
	}
	return ops
}

// --- serve_plain ---

const (
	plainSmallDocs  = 48
	plainSmallBytes = 4 << 10
	plainLargeDocs  = 8
	plainLargeBytes = 64 << 10
	// Per round: 71 % reads of small documents, 24 % reads of large ones,
	// 5 % writes. The read class is then 74 % cheap and 26 % dear ops, so
	// its p50 sits inside the small reads and its p90 inside the large.
	// Both read counts are whole cycles of (kind, query), so every round
	// has the same composition.
	plainSmallReads = 400 // 10 cycles of 4 kinds x 10 query slots
	plainLargeReads = 144 // 12 cycles of 4 kinds x 3 queries
	plainWrites     = 30
)

func buildServePlain(rng *rand.Rand, scale float64) *script {
	s := &script{setup: prepareQueries("rec", "denied", "tok", "dup")}
	small := make([]string, plainSmallDocs)
	for i := range small {
		small[i] = fmt.Sprintf("p%02d", i)
		s.setup = append(s.setup, putDocOp(small[i], genLog(rng, plainSmallBytes), false))
	}
	large := make([]string, plainLargeDocs)
	for i := range large {
		large[i] = fmt.Sprintf("l%d", i)
		s.setup = append(s.setup, putDocOp(large[i], genLog(rng, plainLargeBytes), false))
	}
	// dup (join + string-equality selection, materializing backend) runs
	// on small documents only, as one read in ten.
	smallQueries := []string{"rec", "denied", "tok", "rec", "denied", "tok", "rec", "denied", "tok", "dup"}
	largeQueries := []string{"rec", "denied", "tok"}
	for r := 0; r <= numRounds; r++ {
		f := roundScale(r, scale)
		var ops []*op
		for i := 0; i < scaled(plainSmallReads, f); i++ {
			ops = append(ops, readOp(i%numReadKinds, smallQueries[i/numReadKinds%len(smallQueries)], small[rng.Intn(len(small))], 0))
		}
		for i := 0; i < scaled(plainLargeReads, f); i++ {
			ops = append(ops, readOp(i%numReadKinds, largeQueries[i/numReadKinds%len(largeQueries)], large[rng.Intn(len(large))], 0))
		}
		for i := 0; i < scaled(plainWrites, f); i++ {
			ops = append(ops, putDocOp(small[rng.Intn(len(small))], genLog(rng, plainSmallBytes), false))
		}
		s.rounds = append(s.rounds, shuffled(rng, ops))
	}
	return s
}

// --- serve_slp ---

// Re-Pair compresses about 190 KB/s here, so uploading 16 x 256 KiB
// with ?compress=1 would make set-up take 20 s. The fixture uploads
// small compressed base logs instead and builds each large document on
// the server as a CDE concatenation of them — the document database of
// §4.3, whose members share most of one DAG — which costs O(log d) per
// document and leaves the evaluation side with what it is meant to
// face: long logical documents over a small, deep, balanced grammar.
const (
	slpBases     = 8
	slpBaseBytes = 16 << 10
	slpDocs      = 16
	slpDocPicks  = 16 // bases per document: 256 KiB logical length
	slpWriteDocs = 4
	// /eval has no limit=, and rec returns 8000 tuples on these documents;
	// /count of rec takes 50 ms. Reads stay between 1 and 30 ms with rec
	// streamed only, and full streams capped.
	slpStreamAllLimit = 2000
	slpReads          = 250 // 25 cycles of the 10 (kind, query) pairs below
	// A write session is PUT ?compress=1 of a regenerated base-sized log
	// plus a warm per query: cold Re-Pair, balancing and preprocessing
	// beside the warm reads. Sessions are 2 % of units; their PUTs are a
	// quarter of the write class, so write_p50 is a warm and write_p90 a PUT.
	slpWriteSessions = 6
)

var slpReadCycle = []struct {
	kind  int
	query string
}{
	{readEval, "denied"}, {readCount, "denied"}, {readStreamAll, "rec"}, {readStreamFirst, "rec"},
	{readEval, "tok"}, {readCount, "tok"}, {readStreamAll, "denied"}, {readStreamFirst, "denied"},
	{readStreamAll, "tok"}, {readStreamFirst, "tok"},
}

var slpQueries = []string{"rec", "denied", "tok"}

// concatExpr is a balanced CDE concat tree over the named documents.
func concatExpr(names []string) string {
	if len(names) == 1 {
		return names[0]
	}
	h := len(names) / 2
	return "concat(" + concatExpr(names[:h]) + ", " + concatExpr(names[h:]) + ")"
}

// concatDocs uploads compressed base logs and builds each target as a
// seeded CDE concatenation of picks of them; it returns the set-up ops.
func concatDocs(rng *rand.Rand, basePrefix string, bases, baseBytes int, targets []string, picks int) []*op {
	var ops []*op
	baseDocs := make([]*logDoc, bases)
	baseNames := make([]string, bases)
	for i := range baseDocs {
		baseDocs[i] = genLog(rng, baseBytes)
		baseNames[i] = fmt.Sprintf("%s%d", basePrefix, i)
		ops = append(ops, putDocOp(baseNames[i], baseDocs[i], true))
	}
	for _, t := range targets {
		var names []string
		var data []byte
		for p := 0; p < picks; p++ {
			k := rng.Intn(bases)
			names = append(names, baseNames[k])
			data = append(data, baseDocs[k].data...)
		}
		ops = append(ops, editOp(t, concatExpr(names), parseLog(data)))
	}
	return ops
}

func buildServeSLP(rng *rand.Rand, scale float64) *script {
	s := &script{setup: prepareQueries(slpQueries...)}
	docs := make([]string, slpDocs)
	for i := range docs {
		docs[i] = fmt.Sprintf("s%02d", i)
	}
	s.setup = append(s.setup, concatDocs(rng, "b", slpBases, slpBaseBytes, docs, slpDocPicks)...)
	for _, d := range docs {
		for _, q := range slpQueries {
			s.setup = append(s.setup, warmOp(d, q))
		}
	}
	session := 0
	for r := 0; r <= numRounds; r++ {
		f := roundScale(r, scale)
		var units []unit
		for i := 0; i < scaled(slpReads, f); i++ {
			c := slpReadCycle[i%len(slpReadCycle)]
			units = append(units, unit{readOp(c.kind, c.query, docs[rng.Intn(len(docs))], slpStreamAllLimit)})
		}
		for i := 0; i < scaled(slpWriteSessions, f); i++ {
			name := fmt.Sprintf("w%d", session%slpWriteDocs)
			session++
			u := unit{putDocOp(name, genLog(rng, slpBaseBytes), true)}
			for _, q := range slpQueries {
				u = append(u, warmOp(name, q))
			}
			units = append(units, u)
		}
		rng.Shuffle(len(units), func(i, j int) { units[i], units[j] = units[j], units[i] })
		s.rounds = append(s.rounds, units)
	}
	return s
}

// --- edit_views_disk ---

const (
	editBases      = 4
	editBaseBytes  = 16 << 10
	editPicks      = 16 // 256 KiB
	editSources    = 4
	editSrcBytes   = 2 << 10
	editMaxLines   = 8 // lines one edit inserts, deletes or copies
	editLenSlack   = 0.05
	editReads      = 312 // 39 cycles of the 8 reads below
	editsPerRound  = 54  // 15 % of the ops; a class of its own kind but for one snapshot
	editViewDenied = "denied"
	editViewTok    = "tok"
)

// mirror is the generator's copy of the edited document, as lines:
// every edit is line-aligned, so the oracle stays a matter of counting.
type mirror []logLine

// offsets returns the 0-based byte offset of every line start, plus the
// total length as the last element.
func (m mirror) offsets() []int {
	off := make([]int, len(m)+1)
	for i, l := range m {
		off[i+1] = off[i] + l.length()
	}
	return off
}

func (m mirror) counts() countsOracle {
	c := countsOracle{rec: len(m)}
	for _, l := range m {
		switch l.msg {
		case msgDenied:
			c.denied++
		case msgTimeout:
			c.tok++
		}
	}
	return c
}

func splice(m mirror, at int, ins []logLine) mirror {
	out := make(mirror, 0, len(m)+len(ins))
	out = append(out, m[:at]...)
	out = append(out, ins...)
	return append(out, m[at:]...)
}

// nextEdit draws one seeded CDE edit of target (insert from a source
// document, delete, or copy; whole lines) that keeps the length within
// editLenSlack of the starting length, and applies it to the mirror.
func nextEdit(rng *rand.Rand, target string, m mirror, startLines int, srcNames []string, sources []*logDoc) (expr string, after mirror) {
	off := m.offsets()
	n := 1 + rng.Intn(editMaxLines)
	// Every tuple behind an edit moves, so the delta a view keeps and
	// /changes returns grows with the distance from the edit to the end of
	// the document. Edits land in the middle fifth: about half of the
	// tuples move each time, whatever the seed.
	mid := func() int { return 2*len(m)/5 + rng.Intn(len(m)/5) }
	kind := rng.Intn(3)
	switch {
	case float64(len(m)) > (1+editLenSlack)*float64(startLines):
		kind = 1
	case float64(len(m)) < (1-editLenSlack)*float64(startLines):
		kind = 0
	}
	switch kind {
	case 0: // insert lines [a, a+n) of a source before line p
		k := rng.Intn(len(sources))
		src := sources[k]
		a := rng.Intn(len(src.lines) - n)
		p := mid()
		srcOff := mirror(src.lines).offsets()
		expr = fmt.Sprintf("insert(%s, extract(%s, %d, %d), %d)", target, srcNames[k], srcOff[a]+1, srcOff[a+n], off[p]+1)
		after = splice(m, p, src.lines[a:a+n])
	case 1: // delete lines [p, p+n)
		p := mid()
		expr = fmt.Sprintf("delete(%s, %d, %d)", target, off[p]+1, off[p+n])
		after = splice(m[:p:p], p, m[p+n:])
	default: // copy lines [a, a+n) before line p
		a := rng.Intn(len(m) - n)
		p := mid()
		expr = fmt.Sprintf("copy(%s, %d, %d, %d)", target, off[a]+1, off[a+n], off[p]+1)
		after = splice(m, p, m[a:a+n])
	}
	return expr, after
}

func viewOp(kind opKind, query string) *op {
	var o *op
	if kind == opViewGet {
		o = newOp(opViewGet, "GET", "/docs/"+editedDoc+"/views/"+query)
	} else {
		// world.run appends the version: it is only known at run time.
		o = newOp(opChanges, "GET", "/docs/"+editedDoc+"/changes?query="+query+"&since=")
	}
	o.doc, o.query = editedDoc, query
	return o
}

// streamFirstBare is the first-tuples stream without span contents:
// every edit makes a new document version, and the first content read of
// a version decompresses all of it, which would split the stream reads
// into two kinds and park first_tuple_p50_ms on the cliff between them.
// For the same reason the streams use the queries the views keep warm.
func streamFirstBare(query string) *op {
	o := readOp(readStreamFirst, query, editedDoc, 0)
	o.path += "&content=0"
	return o
}

func buildEditViews(rng *rand.Rand, scale float64) *script {
	s := &script{setup: prepareQueries(slpQueries...), views: []string{editViewDenied, editViewTok}}
	s.setup = append(s.setup, concatDocs(rng, "e", editBases, editBaseBytes, []string{editedDoc}, editPicks)...)
	m := mirror(s.setup[len(s.setup)-1].after.(*logDoc).lines)
	startLines := len(m)
	sources := make([]*logDoc, editSources)
	srcNames := make([]string, editSources)
	for i := range sources {
		sources[i], srcNames[i] = genLog(rng, editSrcBytes), fmt.Sprintf("ins%d", i)
		s.setup = append(s.setup, putDocOp(srcNames[i], sources[i], true))
	}
	for _, q := range s.views {
		o := newOp(opViewPut, "PUT", "/docs/"+editedDoc+"/views/"+q)
		o.doc, o.query = editedDoc, q
		s.setup = append(s.setup, o)
	}
	reads := []func() *op{
		func() *op { return viewOp(opViewGet, editViewDenied) },
		func() *op { return viewOp(opChanges, editViewDenied) },
		func() *op { return readOp(readCount, "denied", editedDoc, 0) },
		func() *op { return streamFirstBare("denied") },
		func() *op { return viewOp(opViewGet, editViewTok) },
		func() *op { return viewOp(opChanges, editViewTok) },
		func() *op { return readOp(readCount, "tok", editedDoc, 0) },
		func() *op { return streamFirstBare("tok") },
	}
	ticket, edits := 0, 0
	for r := 0; r <= numRounds; r++ {
		f := roundScale(r, scale)
		var ops []*op
		for i := 0; i < scaled(editReads, f); i++ {
			ops = append(ops, reads[i%len(reads)]())
		}
		nEdits := scaled(editsPerRound, f)
		ops = append(ops, make([]*op, nEdits)...) // placeholders: edits are dealt after the shuffle
		ops = append(ops, newOp(opSnapshot, "POST", "/admin/snapshot"))
		units := shuffled(rng, ops)
		// The edits take their places in sequence order, so that edit k is
		// queued before edit k+1 and its expression is valid at its turn.
		for _, u := range units {
			if u[0] != nil {
				continue
			}
			if edits++; edits > maxEditTotal {
				panic("edit_views_disk: more than maxEditTotal edits; lower --seconds")
			}
			var expr string
			expr, m = nextEdit(rng, editedDoc, m, startLines, srcNames, sources)
			u[0] = editOp(editedDoc, expr, m.counts())
			u[0].ticket = ticket
			ticket++
		}
		s.rounds = append(s.rounds, units)
	}
	return s
}

// --- register_adhoc ---

const (
	adhocDoc      = "a"
	adhocDocBytes = 2 << 10
	// A session is one analyst on one connection: register a raw pattern,
	// look at it four ways, replace it by an algebra expression, look
	// again, drop it. Writes are PUT, PUT, DELETE: write_p50 is a raw PUT
	// and write_p90 an algebra PUT.
	adhocSessions = 180
	// adhocPlanBudget is the planner's default determinization budget.
	adhocPlanBudget = 4096
)

// algebraSource fills the two operand patterns into an expression.
func algebraSource(format, left, right string) querySource {
	return querySource{fmt.Sprintf(format, left, right), []string{left, right}}
}

// adhocSource returns the i-th session's two unique query sources (a
// raw pattern and an algebra expression over 2 patterns) with the tuple
// counts they must have on d. Variable names carry i, so no source —
// and no automaton — repeats within a run; the literals are seeded.
func adhocSource(rng *rand.Rand, i int, d *logDoc) (raw querySource, rawWant int, expr querySource, exprWant int) {
	count := func(pred func(l logLine) bool) int {
		n := 0
		for _, l := range d.lines {
			if pred(l) {
				n++
			}
		}
		return n
	}
	hour := func(h int) string {
		return fmt.Sprintf(`(.*\n)?\[%02d:[0-9][0-9]\] !s%d{[a-z]+} req=!r%d{r[0-9]}[ ]msg=[a-z ]+`+lineSuffix, h, i, i)
	}
	h1 := rng.Intn(24)
	h2 := (h1 + 1 + rng.Intn(23)) % 24
	svc, req, msg := uint8(rng.Intn(len(logServices))), uint8(rng.Intn(8)), uint8(rng.Intn(len(logMessages)))
	digit := uint8(rng.Intn(10))

	switch i % 3 {
	case 0:
		raw, rawWant = rawSource(hour(h1)), count(func(l logLine) bool { return int(l.hh) == h1 })
	case 1:
		raw = rawSource(fmt.Sprintf(linePrefix+`%s req=!r%d{r%d}[ ]msg=!m%d{[a-z ]+}`+lineSuffix, logServices[svc], i, req, i))
		rawWant = count(func(l logLine) bool { return l.svc == svc && l.req == req })
	default:
		raw = rawSource(fmt.Sprintf(`.*:!x%d{[0-9]%d}\] [a-z]+ req=r[0-9] msg=%s\n.*`, i, digit, logMessages[msg]))
		rawWant = count(func(l logLine) bool { return l.mm%10 == digit && l.msg == msg })
	}
	switch i / 3 % 3 {
	case 0:
		expr = algebraSource("union(%s; %s)", hour(h1), hour(h2))
		exprWant = count(func(l logLine) bool { return int(l.hh) == h1 || int(l.hh) == h2 })
	case 1:
		expr = algebraSource("join(%s; %s)",
			fmt.Sprintf(linePrefix+`!s%d{[a-z]+} req=!r%d{r%d}[ ]msg=[a-z ]+`+lineSuffix, i, i, req),
			fmt.Sprintf(linePrefix+`[a-z]+ req=!r%d{r[0-9]}[ ]msg=!m%d{%s}`+lineSuffix, i, i, logMessages[msg]))
		exprWant = count(func(l logLine) bool { return l.req == req && l.msg == msg })
	default:
		// The loganalysis shape: string-equality selection over a join, on
		// the materializing backend.
		expr = algebraSource(fmt.Sprintf("project(a%d; seleq(a%d,b%d; join(%%s; %%s)))", i, i, i),
			fmt.Sprintf(linePrefix+`%s req=!a%d{r[0-9]}[ ]msg=[a-z ]+`+lineSuffix, logServices[svc], i),
			fmt.Sprintf(linePrefix+`[a-z]+ req=!b%d{r[0-9]}[ ]msg=%s`+lineSuffix, i, logMessages[msg]))
		var reqs [8]bool
		for _, l := range d.lines {
			if l.msg == msg {
				reqs[l.req] = true
			}
		}
		exprWant = count(func(l logLine) bool { return l.svc == svc && reqs[l.req] })
	}
	return raw, rawWant, expr, exprWant
}

// Every registration carries a planner budget unique within the run
// (default + session number; no query comes near either). The plan
// cache keys an expression by the addresses of its automata, a fused
// plan lets go of the operand automata, and the collector hands their
// addresses to later queries: without a unique budget in the key, about
// 0.3 % of the ad-hoc reads are answered from another query's plan (the
// oracle caught it). The repository fix belongs to a later change; a
// benchmark must run on workloads where no operation fails.
func buildRegisterAdhoc(rng *rand.Rand, scale float64) *script {
	d := genLog(rng, adhocDocBytes)
	s := &script{setup: []*op{putDocOp(adhocDoc, d, false)}}
	session := 0
	for r := 0; r <= numRounds; r++ {
		var units []unit
		for i := 0; i < scaled(adhocSessions, roundScale(r, scale)); i++ {
			name := fmt.Sprintf("q%d", session)
			raw, rawWant, expr, exprWant := adhocSource(rng, session, d)
			session++
			var u unit
			for _, v := range []struct {
				src  querySource
				want int
			}{{raw, rawWant}, {expr, exprWant}} {
				explain := newOp(opExplain, "GET", "/queries/"+name+"/explain")
				explain.query = name
				u = append(u, putQueryOp(name, v.src, session), explain)
				for _, kind := range []int{readEval, readCount, readStreamFirst} {
					o := readOp(kind, name, adhocDoc, 0)
					o.want = v.want
					u = append(u, o)
				}
			}
			del := newOp(opDelQuery, "DELETE", "/queries/"+name)
			del.query = name
			units = append(units, append(u, del))
		}
		s.rounds = append(s.rounds, units)
	}
	return s
}

package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// logAlphabet is the examples/loganalysis alphabet; every prepared query
// is registered with it so "." has the same meaning in the server and
// in the in-process oracle.
const logAlphabet = "abcdefghijklmnopqrstuvwxyz0123456789 :=[]>-.\n"

var (
	logServices = []string{"auth", "billing", "gateway", "search"}
	logMessages = []string{"timeout", "retry", "ok", "cache miss", "denied"}
)

const (
	msgTimeout = 0
	msgDenied  = 4
)

// Line layout: "[hh:mm] svc req=rN msg=MSG\n". The fixed parts make
// every span of a line a function of (start, svc, msg).
const (
	lineSvcOff  = 8  // "[hh:mm] "
	lineReqGap  = 5  // " req="
	lineReqLen  = 2  // "rN"
	lineMsgGap  = 5  // " msg="
	lineFixed   = 21 // everything but svc and msg, newline included
	linesPerMix = 20 // lcm(len(logServices), len(logMessages))
)

// logLine is the oracle's view of one record line.
type logLine struct {
	start  int // 0-based byte offset of '['
	hh, mm uint8
	svc    uint8
	req    uint8
	msg    uint8
}

func (l logLine) length() int { return lineFixed + len(logServices[l.svc]) + len(logMessages[l.msg]) }

// span is a 1-based, end-exclusive span as the server prints it.
type span struct{ begin, end int }

func (l logLine) svcSpan() span {
	b := l.start + lineSvcOff + 1
	return span{b, b + len(logServices[l.svc])}
}

func (l logLine) reqSpan() span {
	b := l.svcSpan().end + lineReqGap
	return span{b, b + lineReqLen}
}

func (l logLine) msgSpan() span {
	b := l.reqSpan().end + lineMsgGap
	return span{b, b + len(logMessages[l.msg])}
}

// logDoc is a generated service log together with the by-construction
// oracle for the prepared queries: one rec tuple per line, one denied
// tuple per msg=denied line, one tok tuple per msg=timeout line.
type logDoc struct {
	data   []byte
	lines  []logLine
	denied int
	tok    int
}

// lineMixer deals (svc, msg) pairs so that every window of linesPerMix
// lines holds each service and each message equally often: the result
// sizes of the prepared queries are then a function of the document
// length, not of the seed, and only the arrangement varies.
type lineMixer struct {
	rng  *rand.Rand
	deck [linesPerMix][2]uint8
	next int
}

func newLineMixer(rng *rand.Rand) *lineMixer {
	m := &lineMixer{rng: rng, next: linesPerMix}
	for i := range m.deck {
		m.deck[i] = [2]uint8{uint8(i % len(logServices)), uint8(i % len(logMessages))}
	}
	return m
}

func (m *lineMixer) draw() (svc, msg uint8) {
	if m.next == linesPerMix {
		m.rng.Shuffle(linesPerMix, func(i, j int) { m.deck[i], m.deck[j] = m.deck[j], m.deck[i] })
		m.next = 0
	}
	c := m.deck[m.next]
	m.next++
	return c[0], c[1]
}

func appendLine(sb *strings.Builder, rng *rand.Rand, svc, msg uint8) {
	fmt.Fprintf(sb, "[%02d:%02d] %s req=r%d msg=%s\n",
		rng.Intn(24), rng.Intn(60), logServices[svc], rng.Intn(8), logMessages[msg])
}

// parseLog rebuilds the oracle from generated text. It trusts the
// layout (the text never comes from outside the harness).
func parseLog(data []byte) *logDoc {
	d := &logDoc{data: data}
	for start := 0; start < len(data); {
		rest := data[start:]
		l := logLine{start: start, hh: (rest[1]-'0')*10 + rest[2] - '0', mm: (rest[4]-'0')*10 + rest[5] - '0'}
		for i, s := range logServices {
			if bytes.HasPrefix(rest[lineSvcOff:], []byte(s+" ")) {
				l.svc = uint8(i)
			}
		}
		reqOff := lineSvcOff + len(logServices[l.svc]) + lineReqGap
		l.req = rest[reqOff+1] - '0'
		msgOff := reqOff + lineReqLen + lineMsgGap
		for i, m := range logMessages {
			if bytes.HasPrefix(rest[msgOff:], []byte(m+"\n")) {
				l.msg = uint8(i)
			}
		}
		d.lines = append(d.lines, l)
		switch l.msg {
		case msgDenied:
			d.denied++
		case msgTimeout:
			d.tok++
		}
		start += l.length()
	}
	return d
}

// genLog generates whole record lines up to (never beyond) size bytes.
func genLog(rng *rand.Rand, size int) *logDoc {
	var sb strings.Builder
	mix := newLineMixer(rng)
	for {
		svc, msg := mix.draw()
		if sb.Len()+lineFixed+len(logServices[svc])+len(logMessages[msg]) > size {
			break
		}
		appendLine(&sb, rng, svc, msg)
	}
	return parseLog([]byte(sb.String()))
}

// lineAt returns the line that contains the 1-based position pos.
func (d *logDoc) lineAt(pos int) (logLine, bool) {
	i := sort.Search(len(d.lines), func(i int) bool { return d.lines[i].start+1 > pos }) - 1
	if i < 0 {
		return logLine{}, false
	}
	return d.lines[i], true
}

// The prepared queries (sources are registered verbatim with
// alphabet=logAlphabet).
const (
	linePrefix = `(.*\n)?\[[0-9][0-9]:[0-9][0-9]\] `
	lineSuffix = `\n(.*\n?)?`

	srcRec    = linePrefix + `!svc{[a-z]+} req=!req{r[0-9]}[ ]msg=!msg{[a-z ]+}` + lineSuffix
	srcDenied = linePrefix + `!svc{[a-z]+} req=!req{r[0-9]}[ ]msg=denied` + lineSuffix
	srcTok    = `.*!x{timeout}.*`
	// srcDup is the loganalysis core query: requests that logged the same
	// message twice (join of two line patterns, string-equality selection,
	// projection). Materializing backend; small documents only.
	srcDupLeft  = `(.*\n)?\[[0-9][0-9]:[0-9][0-9]\] [a-z]+ req=!r1{r[0-9]}[ ]msg=!m1{[a-z ]+}\n.*`
	srcDupRight = `.*\n\[[0-9][0-9]:[0-9][0-9]\] [a-z]+ req=!r2{r[0-9]}[ ]msg=!m2{[a-z ]+}\n(.*\n?)?`
	srcDup      = `project(r1,m1; seleq(r1,r2; seleq(m1,m2; join(` + srcDupLeft + `; ` + srcDupRight + `))))`
)

// oracle answers for one version of one document what the prepared
// queries must return.
type oracle interface {
	// expectCount is the tuple count of a prepared query.
	expectCount(query string) int
	// checkTuple reports whether t (spans by variable name) is in the
	// query's relation; known is false when this oracle keeps counts only.
	checkTuple(query string, t map[string]span) (known, ok bool)
}

func (d *logDoc) expectCount(query string) int {
	switch query {
	case "rec":
		return len(d.lines)
	case "denied":
		return d.denied
	case "tok":
		return d.tok
	case "dup":
		// Both join operands may sit on the same line, except that the
		// right one needs a line before it: every line but the first pairs
		// with itself, the first only with a later twin.
		n := len(d.lines) - 1
		for _, l := range d.lines[1:] {
			if l.req == d.lines[0].req && l.msg == d.lines[0].msg {
				return n + 1
			}
		}
		return n
	}
	panic("no oracle for query " + query)
}

func (d *logDoc) checkTuple(query string, t map[string]span) (known, ok bool) {
	first := t["svc"]
	switch query {
	case "tok":
		first = t["x"]
	case "dup":
		first = t["r1"]
	}
	l, found := d.lineAt(first.begin)
	if !found {
		return true, false
	}
	switch query {
	case "rec":
		ok = len(t) == 3 && t["svc"] == l.svcSpan() && t["req"] == l.reqSpan() && t["msg"] == l.msgSpan()
	case "denied":
		ok = len(t) == 2 && l.msg == msgDenied && t["svc"] == l.svcSpan() && t["req"] == l.reqSpan()
	case "tok":
		ok = len(t) == 1 && l.msg == msgTimeout && t["x"] == l.msgSpan()
	case "dup":
		ok = len(t) == 2 && t["r1"] == l.reqSpan() && t["m1"] == l.msgSpan()
	}
	return true, ok
}

// countsOracle keeps only the counts of one document version: the
// edited document has too many versions to keep every line table.
type countsOracle struct{ rec, denied, tok int }

func (c countsOracle) expectCount(query string) int {
	switch query {
	case "rec":
		return c.rec
	case "denied":
		return c.denied
	case "tok":
		return c.tok
	}
	panic("no oracle for query " + query)
}

func (countsOracle) checkTuple(string, map[string]span) (known, ok bool) { return false, false }

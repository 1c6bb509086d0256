package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// opKind names what one HTTP operation does; kinds from opPutDoc on
// are the write class.
type opKind uint8

const (
	opEval opKind = iota
	opCount
	opStream
	opViewGet
	opChanges
	opExplain
	opPutDoc
	opEdit
	opWarm
	opViewPut
	opPutQuery
	opDelQuery
	opSnapshot
	numOpKinds
)

var opKindNames = [numOpKinds]string{
	"eval", "count", "stream", "view_get", "changes", "explain",
	"put_doc", "edit", "warm", "view_put", "put_query", "del_query", "snapshot",
}

func (k opKind) String() string { return opKindNames[k] }
func (k opKind) isWrite() bool  { return k >= opPutDoc }

// opHandlers are the names spannerd's /metrics uses for the kinds' routes.
var opHandlers = [numOpKinds]string{
	"eval", "count", "stream", "views.get", "docs.changes", "queries.explain",
	"docs.put", "docs.edit", "docs.warm", "views.put", "queries.put", "queries.delete", "admin.snapshot",
}

func (k opKind) handler() string { return opHandlers[k] }

// op is one request of the fixed sequence, fully determined by the
// seed: method, path and body are built when the sequence is generated.
type op struct {
	kind   opKind
	method string
	path   string
	body   []byte

	doc   string // document the op addresses
	query string // prepared query the oracle knows, "" otherwise
	limit int    // stream ?limit=, 0 for none

	// patterns are the raw spanner patterns of a registered source (the
	// source itself, or the operands of its algebra expression): what the
	// traced run parses and compiles one by one.
	patterns []string

	// after is what the document holds once a write is applied.
	after oracle
	// ticket orders the edits of one document: edit k is sent only after
	// edit k-1 was answered, so the CDE positions (computed against the
	// generator's mirror) stay valid with two connections. -1 otherwise.
	ticket int
	// want is the expected tuple count when the document does not decide
	// it (ad-hoc queries); -1 otherwise.
	want int
}

// label names the op's kind for the per-kind latency listing: class,
// kind, query and document family (the names without their numbers).
func (o *op) label() string {
	class := "read"
	if o.kind.isWrite() {
		class = "write"
	}
	l := class + " " + o.kind.String()
	if o.limit > 0 {
		l += fmt.Sprintf("(limit=%d)", o.limit)
	}
	if o.query != "" {
		l += " " + strings.TrimRight(o.query, "0123456789")
	}
	if o.doc != "" {
		l += " " + strings.TrimRight(o.doc, "0123456789") + "*"
	}
	return l
}

// unit is what one connection takes from the shared queue: a single op
// or an ordered mini-session.
type unit []*op

// obs is what the client saw of one op; verification runs on it after
// the round, off the timed path.
type obs struct {
	op     *op
	start  time.Time
	lat    time.Duration
	first  time.Duration // stream: request sent → first NDJSON line
	status int
	err    error
	// payload is the part of the body that is a function of the request
	// alone: the tuples, without the envelope's "took" durations.
	payload int
	version int
	count   int // the count the response states, -1 when it states none
	tuples  int // tuples actually present in the body, -1 when not counted
	tuple   map[string]span
	// changes trailer
	from, to, added, removed int
}

// conn is one closed-loop client connection.
type conn struct {
	client *http.Client
	base   string
	buf    []byte
}

func newConn(base string) *conn {
	tr := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}
	return &conn{client: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base, buf: make([]byte, 0, 1<<20)}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// do sends one op and reads the whole body. The latency clock stops at
// the last body byte; parsing happens after it.
func (c *conn) do(o *op, path string) obs {
	ob := obs{op: o, count: -1, tuples: -1}
	var body io.Reader
	if o.body != nil {
		body = bytes.NewReader(o.body)
	}
	req, err := http.NewRequest(o.method, c.base+path, body)
	if err != nil {
		ob.err = err
		return ob
	}
	start := time.Now()
	ob.start = start
	resp, err := c.client.Do(req)
	if err != nil {
		ob.err = err
		ob.lat = time.Since(start)
		return ob
	}
	buf := c.buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := resp.Body.Read(buf[len(buf):cap(buf)])
		if n > 0 && ob.first == 0 && bytes.IndexByte(buf[len(buf):len(buf)+n], '\n') >= 0 {
			ob.first = time.Since(start)
		}
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			ob.err = err
			break
		}
	}
	ob.lat = time.Since(start)
	resp.Body.Close()
	c.buf = buf
	ob.status = resp.StatusCode
	if ob.err == nil && ob.status/100 == 2 {
		ob.parse(buf)
	} else if ob.err == nil {
		ob.err = fmt.Errorf("HTTP %d: %s", ob.status, bytes.TrimSpace(buf[:min(len(buf), 200)]))
	}
	return ob
}

// parse extracts the few fields verification needs, without decoding
// the whole body: a full JSON decode of every response would cost the
// client as much CPU as the server spent encoding it, on the same cores.
func (ob *obs) parse(body []byte) {
	switch ob.op.kind {
	case opEval:
		ob.count, _ = jsonInt(body, "count", false)
		ob.version, _ = jsonInt(body, "version", true)
		ob.tuples = 0
		if i := bytes.Index(body, []byte(`"tuples": [`)); i >= 0 {
			ob.payload = bytes.LastIndex(body, []byte(`"version"`)) - i
			if ob.tuple = firstObject(body[i:]); ob.tuple != nil {
				ob.tuples = bytes.Count(body[i:], []byte(`"begin"`)) / len(ob.tuple)
			}
		}
	case opCount, opViewGet:
		ob.count, _ = jsonInt(body, "count", false)
		ob.version, _ = jsonInt(body, "version", true)
	case opStream:
		ob.tuples = bytes.Count(body, []byte{'\n'}) - 1
		trailer := lastLine(body)
		ob.payload = len(body) - len(trailer) - 1
		ob.count, _ = jsonInt(trailer, "count", false)
		ob.version, _ = jsonInt(trailer, "version", true)
		if !bytes.Contains(trailer, []byte(`"done":true`)) {
			ob.err = fmt.Errorf("stream trailer not done: %s", trailer)
		}
		if ob.tuples > 0 {
			ob.tuple = firstObject(body)
		}
	case opChanges:
		trailer := lastLine(body)
		ob.from, _ = jsonInt(trailer, "from", false)
		ob.to, _ = jsonInt(trailer, "to", false)
		ob.added, _ = jsonInt(trailer, "added", false)
		ob.removed, _ = jsonInt(trailer, "removed", false)
		ob.version = ob.to
		ob.tuples = bytes.Count(body, []byte{'\n'}) - 1
		ob.payload = len(body) - len(trailer) - 1
		if !bytes.Contains(trailer, []byte(`"done":true`)) {
			ob.err = fmt.Errorf("changes trailer not done: %s", trailer)
		}
	case opPutDoc, opEdit:
		ob.version, _ = jsonInt(body, "version", true)
	case opExplain:
		if !bytes.Contains(body, []byte(`"plan"`)) {
			ob.err = fmt.Errorf("explain without a plan")
		}
	}
}

// jsonInt finds `"key":` (first or last occurrence) and parses the
// integer after it. Document text cannot fake a key: the log alphabet
// has no quote character.
func jsonInt(body []byte, key string, last bool) (int, bool) {
	pat := []byte(`"` + key + `":`)
	var i int
	if last {
		i = bytes.LastIndex(body, pat)
	} else {
		i = bytes.Index(body, pat)
	}
	if i < 0 {
		return -1, false
	}
	i += len(pat)
	for i < len(body) && body[i] == ' ' {
		i++
	}
	j := i
	for j < len(body) && body[j] >= '0' && body[j] <= '9' {
		j++
	}
	n, err := strconv.Atoi(string(body[i:j]))
	return n, err == nil
}

func lastLine(body []byte) []byte {
	body = bytes.TrimRight(body, "\n")
	return body[bytes.LastIndexByte(body, '\n')+1:]
}

// firstObject decodes the first JSON object at or after the start of
// body as a tuple (variable → span). Brace matching is safe for the
// same reason jsonInt is: no braces or quotes in document text.
func firstObject(body []byte) map[string]span {
	i := bytes.IndexByte(body, '{')
	if i < 0 {
		return nil
	}
	depth := 0
	for j := i; j < len(body); j++ {
		switch body[j] {
		case '{':
			depth++
		case '}':
			depth--
			if depth == 0 {
				var raw map[string]struct{ Begin, End int }
				if json.Unmarshal(body[i:j+1], &raw) != nil || len(raw) == 0 {
					return nil
				}
				t := make(map[string]span, len(raw))
				for v, s := range raw {
					t[v] = span{s.Begin, s.End}
				}
				return t
			}
		}
	}
	return nil
}

// get fetches path and returns a copy of the body (barrier checks and
// scrapes, never timed).
func (c *conn) get(path string) ([]byte, error) {
	resp, err := c.client.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode/100 != 2 {
		err = fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return body, err
}

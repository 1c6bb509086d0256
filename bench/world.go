package main

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
)

// world is the harness's model of one server instance: which oracle
// each (document, version) answers to, whose turn the next ordered edit
// is, and the newest version any response has shown.
type world struct {
	mu   sync.Mutex
	turn *sync.Cond
	next int // ticket of the next ordered edit
	docs map[string]map[int]oracle

	seen atomic.Int64 // newest version of the edited document seen
}

func newWorld() *world {
	w := &world{docs: map[string]map[int]oracle{}}
	w.turn = sync.NewCond(&w.mu)
	return w
}

// run executes one op on c: waits for its turn when it is an ordered
// edit, resolves a run-time path, and records what a write produced.
func (w *world) run(c *conn, o *op) obs {
	if o.ticket >= 0 {
		w.mu.Lock()
		for w.next != o.ticket {
			w.turn.Wait()
		}
		w.mu.Unlock()
	}
	path := o.path
	if o.kind == opChanges {
		// "what changed since the version before the last one I saw": the
		// newest edit's delta, always inside the view's history window.
		path += strconv.FormatInt(max(w.seen.Load()-1, 1), 10)
	}
	ob := c.do(o, path)
	if o.ticket >= 0 {
		w.mu.Lock()
		w.next++
		w.turn.Broadcast()
		w.mu.Unlock()
	}
	if ob.err == nil && o.after != nil {
		w.mu.Lock()
		if w.docs[o.doc] == nil {
			w.docs[o.doc] = map[int]oracle{}
		}
		w.docs[o.doc][ob.version] = o.after
		w.mu.Unlock()
	}
	if o.kind == opEdit || o.kind == opViewGet || o.kind == opChanges {
		for v := int64(ob.version); ; {
			cur := w.seen.Load()
			if v <= cur || w.seen.CompareAndSwap(cur, v) {
				break
			}
		}
	}
	return ob
}

// verify checks one observation against the oracle; "" means correct.
// It runs after the round, when every write of the round has recorded
// its version, so a read that overtook a write's response still finds
// its oracle.
func (w *world) verify(ob *obs) string {
	o := ob.op
	if ob.err != nil {
		return ob.err.Error()
	}
	want := o.want
	var orc oracle
	counted := o.kind == opEval || o.kind == opCount || o.kind == opViewGet || o.kind == opStream
	if counted && want < 0 {
		w.mu.Lock()
		orc = w.docs[o.doc][ob.version]
		w.mu.Unlock()
		if orc == nil {
			return fmt.Sprintf("%s: version %d of %q was never written", o.kind, ob.version, o.doc)
		}
		want = orc.expectCount(o.query)
	}
	switch {
	case counted:
		full := want
		if o.limit > 0 {
			want = min(want, o.limit)
		}
		if ob.count != want {
			return fmt.Sprintf("%s %s: count %d, oracle says %d", o.kind, o.path, ob.count, want)
		}
		if ob.tuples >= 0 && ob.tuples != want {
			return fmt.Sprintf("%s %s: %d tuples in the body, oracle says %d", o.kind, o.path, ob.tuples, want)
		}
		if full > 0 && ob.tuples >= 0 && ob.tuple == nil {
			return fmt.Sprintf("%s %s: no first tuple in the body", o.kind, o.path)
		}
		if ob.tuple != nil && orc != nil {
			if known, ok := orc.checkTuple(o.query, ob.tuple); known && !ok {
				return fmt.Sprintf("%s %s: first tuple %v is not in the oracle's relation", o.kind, o.path, ob.tuple)
			}
		}
	case o.kind == opChanges:
		w.mu.Lock()
		from, to := w.docs[o.doc][ob.from], w.docs[o.doc][ob.to]
		w.mu.Unlock()
		if from == nil || to == nil {
			return fmt.Sprintf("changes %s: versions %d→%d were never written", o.path, ob.from, ob.to)
		}
		if net := to.expectCount(o.query) - from.expectCount(o.query); ob.added-ob.removed != net {
			return fmt.Sprintf("changes %s: +%d −%d, oracle says net %+d", o.path, ob.added, ob.removed, net)
		}
		if ob.tuples != ob.added+ob.removed {
			return fmt.Sprintf("changes %s: %d lines for +%d −%d", o.path, ob.tuples, ob.added, ob.removed)
		}
	}
	return ""
}

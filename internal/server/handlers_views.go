package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"docspanner/internal/views"
)

// --- live (doc, query) view handlers ---

// viewJSON is the JSON shape of one view result. Count is emitted as a
// raw JSON number so exact big-integer counts survive even when they
// exceed float64 (they can: counting is polynomial in the grammar, the
// count itself need not be).
func viewJSON(v *views.View, res *views.Result) map[string]any {
	key := v.Key()
	out := map[string]any{
		"doc":   key.Doc,
		"query": key.Query,
	}
	refreshes, skipped, _, _ := v.Totals()
	out["refreshes"] = refreshes
	out["skipped_refreshes"] = skipped
	if res == nil {
		out["version"] = 0
		out["pending"] = true
		return out
	}
	out["version"] = res.Version
	out["count"] = json.RawMessage(res.Count.String())
	out["materialized"] = res.Materialized
	out["refreshed"] = res.Refreshed.UTC().Format(time.RFC3339Nano)
	out["elapsed"] = res.Elapsed.String()
	out["recomputed_nodes"] = res.Stats.Recomputed
	out["reused_nodes"] = res.Stats.Reused
	out["grammar_size"] = res.GrammarSize
	out["reuse_ratio"] = res.ReuseRatio()
	return out
}

// handleViewPut registers (idempotently) a live view of a prepared query
// over a stored document and refreshes it to the current snapshot. Like
// /docs/{name}/warm, it requires the query's plan to fuse into a single
// regular scan (422 otherwise) — that is the shape the incremental
// compressed index maintains under edits.
func (s *Server) handleViewPut(w http.ResponseWriter, r *http.Request) error {
	d, err := s.store.get(r.PathValue("name"))
	if err != nil {
		return err
	}
	p, err := s.queries.get(r.PathValue("query"))
	if err != nil {
		return err
	}
	ix, err := p.query.Index()
	if err != nil {
		return &httpError{status: 422, message: err.Error()}
	}
	// The backend append runs inside the registration lock: a concurrent
	// PUT for the same (doc, query) either waits and creates the view
	// itself, or observes a registration whose log record already exists
	// — never one a failed append is about to roll back.
	v, created, err := s.views.Register(d.name, p.name, ix, func() error {
		return s.storage.PutView(d.name, p.name)
	})
	if err != nil {
		return err
	}
	var syncErr error
	if created {
		if err := s.storage.Sync(); err != nil {
			// Registered and logged; only the fsync barrier failed. The
			// view stays live (dropping it would contradict the log), the
			// client gets the explicit durability error below.
			syncErr = syncFailed(fmt.Sprintf("view (%q, %q)", d.name, p.name), err)
		}
	}
	// The initial (or catch-up) refresh runs inline even in async mode:
	// the response should carry a live result, not a promise.
	if res, did := v.Refresh(d.doc, d.version); did {
		s.metrics.viewRefresh(d.name, p.name, res.Elapsed)
	}
	if syncErr != nil {
		return syncErr
	}
	body := viewJSON(v, v.Current())
	body["created"] = created
	status := 200
	if created {
		status = 201
	}
	writeJSON(w, status, body)
	return nil
}

func (s *Server) getView(r *http.Request) (*views.View, error) {
	doc, query := r.PathValue("name"), r.PathValue("query")
	if query == "" {
		query = r.URL.Query().Get("query")
	}
	if query == "" {
		return nil, errBadRequest("view lookup needs ?query=")
	}
	v, ok := s.views.Get(doc, query)
	if !ok {
		return nil, errNotFound(fmt.Sprintf("view (%q, %q)", doc, query))
	}
	return v, nil
}

// handleViewGet returns the view's current version-stamped result.
// ?tuples=1 includes the materialized tuples; span contents are included
// only when the view is at the document's current version (older
// versions' spans index bytes the store no longer holds) and ?content=0
// was not given.
func (s *Server) handleViewGet(w http.ResponseWriter, r *http.Request) error {
	v, err := s.getView(r)
	if err != nil {
		return err
	}
	res := v.Current()
	body := viewJSON(v, res)
	if res != nil && res.Materialized && boolParam(r, "tuples") {
		var doc []byte
		if d, err := s.store.get(v.Key().Doc); err == nil && d.version == res.Version && withContent(r) {
			doc = d.bytes()
		}
		body["tuples"] = tuplesJSON(res.Tuples, doc, doc != nil)
	}
	writeJSON(w, 200, body)
	return nil
}

func (s *Server) handleViewDelete(w http.ResponseWriter, r *http.Request) error {
	doc, query := r.PathValue("name"), r.PathValue("query")
	// Write-ahead order, like every other mutation path: the DeleteView
	// record is appended (under the set lock) before the view vanishes
	// from memory, so a refused append leaves the view registered instead
	// of resurrecting it on the next restart.
	dropped, err := s.views.Drop(doc, query, func() error {
		return s.storage.DeleteView(doc, query)
	})
	if err != nil {
		return err
	}
	if !dropped {
		return errNotFound(fmt.Sprintf("view (%q, %q)", doc, query))
	}
	if err := s.storage.Sync(); err != nil {
		return syncFailed(fmt.Sprintf("view (%q, %q) delete", doc, query), err)
	}
	writeJSON(w, 200, map[string]string{"status": "deleted"})
	return nil
}

func (s *Server) handleViewList(w http.ResponseWriter, _ *http.Request) error {
	return s.writeViewList(w, s.views.List())
}

func (s *Server) handleDocViewList(w http.ResponseWriter, r *http.Request) error {
	if _, err := s.store.get(r.PathValue("name")); err != nil {
		return err
	}
	return s.writeViewList(w, s.views.ForDoc(r.PathValue("name")))
}

func (s *Server) writeViewList(w http.ResponseWriter, vs []*views.View) error {
	out := make([]map[string]any, 0, len(vs))
	for _, v := range vs {
		out = append(out, viewJSON(v, v.Current()))
	}
	writeJSON(w, 200, map[string]any{"views": out})
	return nil
}

// handleDocChanges streams the tuple-level delta of a view between a
// past version (?since=V) and its current version as NDJSON:
// {"op":"add","tuple":{…}} and {"op":"remove","tuple":{…}} lines through
// the zero-allocation encoder, then a summary line
// {"done":true,"from":V,"to":W,"added":N,"removed":M}. Tuples carry
// spans only, no contents — removed tuples reference bytes the store may
// no longer hold.
//
// 404 when no such view; 409 when the view has no result yet; 410 when
// since has left the view's history window; 422 when either endpoint was
// too large to materialize.
func (s *Server) handleDocChanges(w http.ResponseWriter, r *http.Request) error {
	v, err := s.getView(r)
	if err != nil {
		return err
	}
	since, err := intParam(r, "since", -1)
	if err != nil {
		return err
	}
	if since < 0 {
		return errBadRequest("changes needs ?since=<version>")
	}
	from, to, added, removed, ok := v.Changes(since)
	if !ok {
		switch {
		case to == nil:
			return &httpError{status: 409, message: "view has no refreshed result yet"}
		case from == nil:
			return &httpError{status: 410, message: fmt.Sprintf("version %d has left the view's history window", since)}
		default:
			return &httpError{status: 422, message: "an endpoint of the diff exceeded the materialization cap (count-only view)"}
		}
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	rc := http.NewResponseController(w)
	enc := newNDJSONEncoder(w)
	defer enc.Release()

	for _, t := range removed {
		if err := enc.EncodeChange("remove", t, nil, false); err != nil {
			return s.metrics.streamDisconnect(w)
		}
	}
	for _, t := range added {
		if err := enc.EncodeChange("add", t, nil, false); err != nil {
			return s.metrics.streamDisconnect(w)
		}
	}
	key := v.Key()
	return s.metrics.endStream(w, enc, rc, map[string]any{
		"done":    true,
		"doc":     key.Doc,
		"query":   key.Query,
		"from":    from.Version,
		"to":      to.Version,
		"added":   len(added),
		"removed": len(removed),
	})
}

package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"docspanner"
	"docspanner/internal/qsyntax"
	"docspanner/internal/storage"
)

// querySpec is the JSON body of a query registration.
type querySpec struct {
	// Src is the query source: a spanner pattern, or a prefix algebra
	// expression (union/join/project/seleq/minus — internal/qsyntax).
	Src string `json:"src"`
	// Schemaless compiles with schemaless (partial-tuple) semantics.
	Schemaless bool `json:"schemaless"`
	// Alphabet fixes the document alphabet (default: inferred).
	Alphabet string `json:"alphabet,omitempty"`
	// FailOn overrides the server's lint threshold for this registration:
	// "info" | "warning" | "error" | "never".
	FailOn string `json:"fail_on,omitempty"`
	// Plan tunes the planner.
	Plan *planSpec `json:"plan,omitempty"`
}

type planSpec struct {
	DisableRewrites bool `json:"disable_rewrites,omitempty"`
	NaiveBackend    bool `json:"naive_backend,omitempty"`
	ReflRewrite     bool `json:"refl_rewrite,omitempty"`
	MaxFusedStates  int  `json:"max_fused_states,omitempty"`
	// MaxDeterminizeStates tunes the backend cost gate and the SP009
	// determinization-blowup budget for this registration.
	MaxDeterminizeStates int `json:"max_determinize_states,omitempty"`
}

// preparedQuery is a registered query: parsed, linted, and planned once
// at registration; evaluation reuses the immutable *Query (safe for
// concurrent use) from every handler.
type preparedQuery struct {
	name       string
	src        string
	query      *docspanner.Query
	diags      []docspanner.Diagnostic
	registered time.Time
}

// queryInfo is the JSON shape of a prepared query.
type queryInfo struct {
	Name        string                  `json:"name"`
	Src         string                  `json:"src"`
	Vars        []string                `json:"vars"`
	Regular     bool                    `json:"regular"`
	Streaming   bool                    `json:"streaming"`
	Diagnostics []docspanner.Diagnostic `json:"diagnostics"`
	Registered  string                  `json:"registered"`
}

func (p *preparedQuery) info() queryInfo {
	vars := make([]string, 0, len(p.query.Vars()))
	for _, v := range p.query.Vars() { // VarSet is canonically sorted
		vars = append(vars, string(v))
	}
	ds := p.diags
	if ds == nil {
		ds = []docspanner.Diagnostic{}
	}
	return queryInfo{
		Name:        p.name,
		Src:         p.src,
		Vars:        vars,
		Regular:     p.query.IsRegular(),
		Streaming:   p.query.Streaming(),
		Diagnostics: ds,
		Registered:  p.registered.UTC().Format(time.RFC3339Nano),
	}
}

// registry holds the prepared queries, teeing registrations and
// deletions through the storage backend (the raw spec JSON is what
// persists; recovery re-parses and re-plans it). Registration is
// serialized under mu; lookups take the read lock and hand out the
// immutable prepared query.
type registry struct {
	backend storage.Backend

	mu sync.RWMutex
	m  map[string]*preparedQuery
	// failOn is the lint severity that rejects a registration
	// (0 = never reject).
	failOn docspanner.Severity
}

func newRegistry(failOn docspanner.Severity, backend storage.Backend) *registry {
	return &registry{backend: backend, m: map[string]*preparedQuery{}, failOn: failOn}
}

// prepare parses, lints, and plans a spec without storing it. With
// lint set, a finding at or above the threshold rejects the spec with
// the diagnostics attached, so a bad query is rejected once at
// registration instead of surprising every evaluation. Recovery passes
// lint=false: the spec already passed the gate when it was first
// registered, and a restart under a stricter -lint-fail-on must not
// silently drop recovered queries.
func (r *registry) prepare(name string, spec querySpec, lint bool) (*preparedQuery, error) {
	if spec.Src == "" {
		return nil, errBadRequest("query spec needs a non-empty src")
	}
	opts := docspanner.Options{Schemaless: spec.Schemaless}
	if spec.Alphabet != "" {
		opts.Alphabet = []byte(spec.Alphabet)
	}
	q, err := qsyntax.Parse(spec.Src, opts)
	if err != nil {
		return nil, errBadRequest(fmt.Sprintf("parse %q: %s", spec.Src, err))
	}
	if spec.Plan != nil {
		q = q.WithPlan(docspanner.PlanOptions{
			DisableRewrites:      spec.Plan.DisableRewrites,
			NaiveBackend:         spec.Plan.NaiveBackend,
			ReflRewrite:          spec.Plan.ReflRewrite,
			MaxFusedStates:       spec.Plan.MaxFusedStates,
			MaxDeterminizeStates: spec.Plan.MaxDeterminizeStates,
		})
	}

	diags := q.Lint()
	if lint {
		threshold := r.failOn
		if spec.FailOn != "" {
			threshold, err = parseFailOn(spec.FailOn)
			if err != nil {
				return nil, errBadRequest(err.Error())
			}
		}
		if threshold > 0 {
			for _, d := range diags {
				if d.Severity >= threshold {
					return nil, &httpError{
						status:  422,
						message: fmt.Sprintf("lint rejected query %q: %s", name, d),
						diags:   diags,
					}
				}
			}
		}
	}

	return &preparedQuery{name: name, src: spec.Src, query: q, diags: diags}, nil
}

// parseQuerySpec decodes a registration body strictly (unknown fields
// rejected), returning both the decoded spec and the canonical raw JSON
// that the backend persists.
func parseQuerySpec(raw []byte) (querySpec, error) {
	var spec querySpec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, errBadRequest(fmt.Sprintf("bad JSON body: %s", err))
	}
	return spec, nil
}

// register parses, lints, and plans a query from its raw spec JSON,
// persists the registration, and stores it under name.
func (r *registry) register(name string, raw []byte) (queryInfo, error) {
	spec, err := parseQuerySpec(raw)
	if err != nil {
		return queryInfo{}, err
	}
	p, err := r.prepare(name, spec, true)
	if err != nil {
		return queryInfo{}, err
	}
	p.registered = time.Now()

	r.mu.Lock()
	if err := r.backend.PutQuery(name, raw, p.registered); err != nil {
		r.mu.Unlock()
		return queryInfo{}, err
	}
	r.m[name] = p
	r.mu.Unlock()
	if err := r.backend.Sync(); err != nil {
		// The registration is applied and logged; hand the info back with
		// the durability failure so the handler still runs its cascades.
		return p.info(), syncFailed(fmt.Sprintf("query %q registration", name), err)
	}
	return p.info(), nil
}

// recover re-registers a persisted query through the same parse-and-plan
// path, keeping its original registration time. No backend append: the
// registration is already in the log or snapshot being recovered.
func (r *registry) recover(qs storage.QueryState) error {
	spec, err := parseQuerySpec(qs.Spec)
	if err != nil {
		return fmt.Errorf("recovering query %q: %w", qs.Name, err)
	}
	p, err := r.prepare(qs.Name, spec, false)
	if err != nil {
		return fmt.Errorf("recovering query %q: %w", qs.Name, err)
	}
	p.registered = qs.Registered
	r.mu.Lock()
	r.m[qs.Name] = p
	r.mu.Unlock()
	return nil
}

func (r *registry) get(name string) (*preparedQuery, error) {
	r.mu.RLock()
	p, ok := r.m[name]
	r.mu.RUnlock()
	if !ok {
		return nil, errNotFound(fmt.Sprintf("query %q", name))
	}
	return p, nil
}

func (r *registry) delete(name string) error {
	r.mu.Lock()
	if _, ok := r.m[name]; !ok {
		r.mu.Unlock()
		return errNotFound(fmt.Sprintf("query %q", name))
	}
	if err := r.backend.DeleteQuery(name); err != nil {
		r.mu.Unlock()
		return err
	}
	delete(r.m, name)
	r.mu.Unlock()
	if err := r.backend.Sync(); err != nil {
		return syncFailed(fmt.Sprintf("query %q delete", name), err)
	}
	return nil
}

func (r *registry) list() []queryInfo {
	r.mu.RLock()
	out := make([]queryInfo, 0, len(r.m))
	for _, p := range r.m {
		out = append(out, p.info())
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// flush empties, in place, the compressed-evaluation tables of every
// registered query.
func (r *registry) flush() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, p := range r.m {
		p.query.Flush()
	}
}

// retain sweeps the compressed-evaluation tables of every registered
// query down to the nodes live reaches (see docspanner.Query.Retain).
func (r *registry) retain(live []*docspanner.Document) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, p := range r.m {
		p.query.Retain(live)
	}
}

// cachedNodes sums the nodes with data in every registered query's
// compressed-evaluation tables.
func (r *registry) cachedNodes() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, p := range r.m {
		n += p.query.CachedNodes()
	}
	return n
}

func (r *registry) len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.m)
}

// parseFailOn maps a threshold name to a severity; "never" is 0.
func parseFailOn(s string) (docspanner.Severity, error) {
	switch s {
	case "never":
		return 0, nil
	case "info":
		return docspanner.SeverityInfo, nil
	case "warning":
		return docspanner.SeverityWarning, nil
	case "error":
		return docspanner.SeverityError, nil
	}
	return 0, fmt.Errorf("unknown fail-on severity %q (want info, warning, error, or never)", s)
}

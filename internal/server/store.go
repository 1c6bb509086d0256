package server

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"docspanner"
	"docspanner/internal/storage"
)

// storedDoc is one immutable snapshot of a named document. The store
// replaces the whole entry on every mutation (copy-on-write), so
// handlers evaluate against a snapshot without holding the store lock;
// concurrent edits bump the version and swap in a new snapshot.
//
// Every document — plain or compressed — also lives in the store's
// shared DocDB as an SLP, so CDE edit expressions can reference any
// document by name and structure sharing spans the whole store.
type storedDoc struct {
	name       string
	compressed bool // ingested or produced in SLP-compressed form
	version    int
	updated    time.Time

	doc *docspanner.Document // SLP form; always set

	// plain holds the raw bytes; for compressed documents it is filled
	// lazily (one shared decompression) when a handler needs the text.
	plainOnce sync.Once
	plain     []byte
}

// bytes returns the document text, decompressing at most once per
// snapshot.
func (d *storedDoc) bytes() []byte {
	d.plainOnce.Do(func() {
		if d.plain == nil {
			d.plain = d.doc.Bytes()
		}
	})
	return d.plain
}

// source resolves the snapshot to what evaluation takes: the grammar
// (with this snapshot's cached text as the provider, so operators that
// need raw text decompress once per snapshot, not per request) for
// documents held in compressed form, the bytes otherwise.
func (d *storedDoc) source() docspanner.Source {
	if d.compressed {
		return docspanner.Compressed(d.doc, d.bytes)
	}
	return docspanner.Text(d.bytes())
}

// docInfo is the JSON shape of a document in listings and responses.
type docInfo struct {
	Name        string `json:"name"`
	Compressed  bool   `json:"compressed"`
	Len         int64  `json:"len"`
	GrammarSize int    `json:"grammar_size"`
	Version     int    `json:"version"`
	Updated     string `json:"updated"`
}

func (d *storedDoc) info() docInfo {
	return docInfo{
		Name:        d.name,
		Compressed:  d.compressed,
		Len:         d.doc.Len(),
		GrammarSize: d.doc.GrammarSize(),
		Version:     d.version,
		Updated:     d.updated.UTC().Format(time.RFC3339Nano),
	}
}

// docStore is the server's document store: named snapshots over a
// shared SLP document database, teeing every mutation through the
// storage backend before applying it (write-ahead order: a mutation the
// backend refused never becomes visible). The underlying slp.DB is not
// concurrency-safe, so every access to it (and to the name map) happens
// under mu; evaluation never touches the DB — it runs on the immutable
// snapshot taken under RLock.
type docStore struct {
	backend storage.Backend

	mu   sync.RWMutex
	db   *docspanner.DocDB
	docs map[string]*storedDoc
}

// newDocStore rebuilds the serving store from a backend's recovered
// state (empty for the memory backend). Versions and updated stamps
// come from the recovered state, never from the clock — a restart must
// be invisible to clients watching them.
func newDocStore(state *storage.State, backend storage.Backend) (*docStore, error) {
	s := &docStore{backend: backend, db: state.DB, docs: map[string]*storedDoc{}}
	for name, ds := range state.Docs {
		d, ok := state.DB.Get(name)
		if !ok {
			return nil, fmt.Errorf("server: recovered state lists document %q without an SLP", name)
		}
		s.docs[name] = &storedDoc{
			name:       name,
			compressed: ds.Compressed,
			version:    ds.Version,
			updated:    ds.Updated,
			doc:        d,
		}
	}
	return s, nil
}

// put ingests (or replaces) a document. With compress set the bytes are
// Re-Pair-compressed into a balanced SLP; otherwise the SLP form is the
// uncompressed balanced parse (kept so CDE can reference the document).
// Compression runs before taking the lock; the backend append happens
// under it (log order is apply order), and the durability barrier after
// releasing it. A *syncFailedError comes back WITH the new snapshot:
// the mutation is applied and logged, only its fsync failed, so callers
// must still run their post-mutation side effects.
func (s *docStore) put(name string, data []byte, compress bool) (*storedDoc, error) {
	var d *docspanner.Document
	if compress {
		d = docspanner.CompressDocument(data)
	} else {
		d = docspanner.DocumentFromBytes(data)
	}
	s.mu.Lock()
	version := 1
	if old, ok := s.docs[name]; ok {
		version = old.version + 1
	}
	sd := &storedDoc{
		name:       name,
		compressed: compress,
		version:    version,
		updated:    time.Now(),
		doc:        d,
		plain:      data,
	}
	if err := s.backend.PutDoc(name, data, d, compress, version, sd.updated); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	s.db.Add(name, d)
	s.docs[name] = sd
	s.mu.Unlock()
	if err := s.backend.Sync(); err != nil {
		return sd, syncFailed(fmt.Sprintf("document %q v%d", name, sd.version), err)
	}
	return sd, nil
}

// compress re-ingests a plain document in compressed form, preserving
// the version history. It is a no-op for already-compressed documents.
//
// Re-Pair is the expensive step, so it runs outside the store lock on
// the immutable snapshot; the swap then re-checks under the write lock
// that the document did not move on. If it did (a concurrent put or
// edit), the compression is redone from the fresh snapshot rather than
// clobbering the newer version with stale bytes.
func (s *docStore) compress(name string) (*storedDoc, error) {
	for {
		s.mu.RLock()
		old, ok := s.docs[name]
		s.mu.RUnlock()
		if !ok {
			return nil, errNotFound(fmt.Sprintf("document %q", name))
		}
		if old.compressed {
			return old, nil
		}
		data := old.bytes()
		d := docspanner.CompressDocument(data)

		s.mu.Lock()
		cur, ok := s.docs[name]
		if !ok {
			s.mu.Unlock()
			return nil, errNotFound(fmt.Sprintf("document %q", name))
		}
		if cur != old {
			s.mu.Unlock()
			continue // raced with a mutation; recompress the new snapshot
		}
		sd := &storedDoc{
			name:       name,
			compressed: true,
			version:    old.version + 1,
			updated:    time.Now(),
			doc:        d,
			plain:      data,
		}
		if err := s.backend.PutDoc(name, data, d, true, sd.version, sd.updated); err != nil {
			s.mu.Unlock()
			return nil, err
		}
		s.db.Add(name, d)
		s.docs[name] = sd
		s.mu.Unlock()
		if err := s.backend.Sync(); err != nil {
			return sd, syncFailed(fmt.Sprintf("document %q v%d", name, sd.version), err)
		}
		return sd, nil
	}
}

// edit evaluates a CDE expression over the store's SLP database and
// stores the result under name (which may be new or may overwrite an
// existing document). The result is always compressed-form: CDE works on
// the grammar and never decompresses anything. Parse and evaluation
// failures come back as 422 with one structured diagnostic per the CDE
// error taxonomy (CDE001 parse, CDE002 unknown document, CDE003 range).
// The backend persists the expression text itself; replay re-evaluates
// it against the recovered grammar.
func (s *docStore) edit(name, expr string) (*storedDoc, error) {
	s.mu.Lock()
	old := s.docs[name] // nil when the edit creates the document
	d, err := s.db.Edit(name, expr)
	if err != nil {
		s.mu.Unlock()
		return nil, cdeHTTPError(err, expr)
	}
	version := 1
	if old != nil {
		version = old.version + 1
	}
	sd := &storedDoc{
		name:       name,
		compressed: true,
		version:    version,
		updated:    time.Now(),
		doc:        d,
	}
	if err := s.backend.EditDoc(name, expr, d, version, sd.updated); err != nil {
		// Edit already rebound name in the DB; restore the old binding so
		// the refused mutation is invisible.
		if old != nil {
			s.db.Add(name, old.doc)
		} else {
			s.db.Remove(name)
		}
		s.mu.Unlock()
		return nil, err
	}
	s.docs[name] = sd
	s.mu.Unlock()
	if err := s.backend.Sync(); err != nil {
		return sd, syncFailed(fmt.Sprintf("document %q v%d", name, sd.version), err)
	}
	return sd, nil
}

// cdeHTTPError maps a CDE failure onto the structured-diagnostics 422
// shape query registration uses: the stable CDE code, a position ("$"
// for evaluation errors, "offset N" into the expression for parse
// errors), the message, and the library's hint.
func cdeHTTPError(err error, expr string) error {
	var ce *docspanner.CDEError
	if !errors.As(err, &ce) {
		return errBadRequest(err.Error())
	}
	pos := "$"
	if ce.Offset >= 0 {
		pos = fmt.Sprintf("offset %d", ce.Offset)
	} else if ce.Op != "" {
		pos = ce.Op
	}
	return &httpError{
		status:  422,
		message: fmt.Sprintf("edit %q: %s", expr, ce.Message),
		diags: []docspanner.Diagnostic{{
			Code:     ce.Code,
			Severity: docspanner.SeverityError,
			Pos:      pos,
			Message:  ce.Message,
			Hint:     ce.Hint,
		}},
	}
}

// get returns the current snapshot of a document.
func (s *docStore) get(name string) (*storedDoc, error) {
	s.mu.RLock()
	d, ok := s.docs[name]
	s.mu.RUnlock()
	if !ok {
		return nil, errNotFound(fmt.Sprintf("document %q", name))
	}
	return d, nil
}

func (s *docStore) delete(name string) error {
	s.mu.Lock()
	if _, ok := s.docs[name]; !ok {
		s.mu.Unlock()
		return errNotFound(fmt.Sprintf("document %q", name))
	}
	if err := s.backend.DeleteDoc(name); err != nil {
		s.mu.Unlock()
		return err
	}
	delete(s.docs, name)
	s.db.Remove(name)
	s.mu.Unlock()
	if err := s.backend.Sync(); err != nil {
		return syncFailed(fmt.Sprintf("document %q delete", name), err)
	}
	return nil
}

func (s *docStore) list() []docInfo {
	s.mu.RLock()
	out := make([]docInfo, 0, len(s.docs))
	for _, d := range s.docs {
		out = append(out, d.info())
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// documents returns every current document's SLP form, plain ones
// included: views and /warm index those too.
func (s *docStore) documents() []*docspanner.Document {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*docspanner.Document, 0, len(s.docs))
	for _, d := range s.docs {
		out = append(out, d.doc)
	}
	return out
}

func (s *docStore) len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.docs)
}

// grammarSize returns the total number of distinct SLP nodes across the
// store (shared nodes counted once).
func (s *docStore) grammarSize() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.db.Size()
}

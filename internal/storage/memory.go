package storage

import (
	"time"

	"docspanner"
)

// Memory is the in-memory backend: the pre-durability behavior of the
// store, extracted behind the Backend interface. It persists nothing —
// every mutation is a no-op, Load recovers an empty state, and a restart
// starts fresh. It exists so the serving path is written once against
// Backend and the default in-memory mode stays byte-for-byte what it was.
type Memory struct{}

// NewMemory returns the no-op backend.
func NewMemory() *Memory { return &Memory{} }

// Load recovers the empty state.
func (*Memory) Load() (*State, error) { return NewState(), nil }

func (*Memory) PutDoc(string, []byte, *docspanner.Document, bool, int, time.Time) error { return nil }
func (*Memory) EditDoc(string, string, *docspanner.Document, int, time.Time) error      { return nil }
func (*Memory) DeleteDoc(string) error                                                  { return nil }
func (*Memory) PutQuery(string, []byte, time.Time) error                                { return nil }
func (*Memory) DeleteQuery(string) error                                                { return nil }
func (*Memory) PutView(string, string) error                                            { return nil }
func (*Memory) DeleteView(string, string) error                                         { return nil }
func (*Memory) Sync() error                                                             { return nil }
func (*Memory) Snapshot() error                                                         { return nil }
func (*Memory) Close() error                                                            { return nil }

func (*Memory) Stats() Stats { return Stats{Kind: "memory"} }

// Package mlog implements the logging layer (Figure 1: "tolerance of
// total crash failures"). Every delivered multicast and every view
// installation is appended to a durable store; after a total crash —
// all members gone — a restarted member replays the log to rebuild its
// application state up to the last recorded delivery.
//
// The store is an interface; MemStore is the in-process stand-in for
// the disk the paper's deployments would use (the substitution is
// behaviour-preserving: what matters to the protocol is the
// append/replay contract, not the medium).
package mlog

import (
	"fmt"
	"sync"

	"horus/internal/core"
	"horus/internal/message"
)

// EntryKind discriminates log entries.
type EntryKind int

// Log entry kinds.
const (
	EntryCast EntryKind = iota + 1
	EntryView
)

// Entry is one durable log record.
type Entry struct {
	Kind   EntryKind
	Source core.EndpointID
	Body   []byte
	View   *core.View
}

// Store is the durability contract.
type Store interface {
	// Append durably adds one entry.
	Append(Entry) error
	// Entries returns all entries in append order.
	Entries() []Entry
}

// MemStore is an in-memory Store, safe for concurrent use.
type MemStore struct {
	mu      sync.Mutex
	entries []Entry
}

// NewMemStore returns an empty store.
func NewMemStore() *MemStore { return &MemStore{} }

// Append implements Store.
func (s *MemStore) Append(e Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries = append(s.entries, e)
	return nil
}

// Entries implements Store.
func (s *MemStore) Entries() []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Entry(nil), s.entries...)
}

// Mlog is one logging layer instance.
type Mlog struct {
	core.Base
	store Store
	stats Stats
}

// Stats counts logging activity.
type Stats struct {
	Logged int
	Errors int
}

// New returns a factory for logging layers writing to store.
func New(store Store) core.Factory {
	return func() core.Layer { return &Mlog{store: store} }
}

// Name implements core.Layer.
func (l *Mlog) Name() string { return "MLOG" }

// Stats returns a snapshot of the layer's counters.
func (l *Mlog) Stats() Stats { return l.stats }

// Init implements core.Layer.
func (l *Mlog) Init(c *core.Context) error {
	if err := l.Base.Init(c); err != nil {
		return err
	}
	if l.store == nil {
		return fmt.Errorf("mlog: nil store")
	}
	return nil
}

// Up implements core.Layer.
func (l *Mlog) Up(ev *core.Event) {
	switch ev.Type {
	case core.UCast:
		l.append(Entry{Kind: EntryCast, Source: ev.Source,
			Body: append([]byte(nil), ev.Msg.Body()...)})
	case core.UView:
		l.append(Entry{Kind: EntryView, View: ev.View})
	}
	l.Ctx.Up(ev)
}

// Down implements core.Layer.
func (l *Mlog) Down(ev *core.Event) {
	if ev.Type == core.DDump {
		ev.Dump = append(ev.Dump, fmt.Sprintf("MLOG: logged=%d errors=%d", l.stats.Logged, l.stats.Errors))
	}
	l.Ctx.Down(ev)
}

func (l *Mlog) append(e Entry) {
	if err := l.store.Append(e); err != nil {
		l.stats.Errors++
		l.Ctx.Up(&core.Event{Type: core.USystemError, Detail: &core.Detail{Reason: "mlog: " + err.Error()}})
		return
	}
	l.stats.Logged++
}

// Replay feeds the stored entries to fn in order — the total-crash
// recovery path. fn receives reconstructed CAST and VIEW events.
func Replay(store Store, fn core.Handler) {
	for _, e := range store.Entries() {
		switch e.Kind {
		case EntryCast:
			fn(&core.Event{Type: core.UCast, Source: e.Source, Msg: message.New(e.Body)})
		case EntryView:
			fn(&core.Event{Type: core.UView, Detail: &core.Detail{View: e.View}})
		}
	}
}

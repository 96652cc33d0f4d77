package core

import (
	"encoding/json"
	"sort"
	"time"

	"repro/internal/durable"
	"repro/internal/telemetry"
)

// idemPerUser bounds each user's idempotency window: the request IDs of
// their most recent acknowledged mutations, with the acknowledged
// results. A retry that falls outside the window is applied as a fresh
// call — the window only needs to outlive a client's retry horizon, not
// history.
const idemPerUser = 128

// idemItem is one acknowledged mutation in the window. seq orders
// eviction deterministically: it is the op's journal sequence number, so
// a live window and one rebuilt by snapshot restore + journal replay
// evict identically (the byte-identity suite depends on that).
type idemItem struct {
	seq   uint64
	entry durable.IdemEntry
}

// idemUserWin is one user's window: ID lookup plus ascending-seq order.
type idemUserWin struct {
	byID map[string]*idemItem
	list []*idemItem
}

// idemWindow is the deployment-wide duplicate-suppression state. It has
// no lock of its own: journal, Checkpoint, CaptureState and recovery
// reach it under the deployment's lock (GAE.mu). It is exported into every snapshot, so
// duplicate suppression survives a restart that falls between a call's
// first delivery and its retry.
//
// The window is bounded by count, limit entries per user, evicting in
// sequence order, so a live window and a replayed one evict identically.
type idemWindow struct {
	limit int
	users map[string]*idemUserWin
	// fallbackSeq orders entries recorded with no journal sequence (a
	// storeless deployment). Restored entries are renumbered from 1, which
	// stays below any journal sequence a later attach could assign.
	fallbackSeq uint64

	// Telemetry handles (nil when unobserved; nil instruments no-op).
	obsHits     *telemetry.Counter
	obsEvictCap *telemetry.Counter
}

func newIdemWindow() *idemWindow {
	return &idemWindow{limit: idemPerUser, users: make(map[string]*idemUserWin)}
}

// setTelemetry registers the window's counters in reg: dedup hits and
// evictions, whose one cause is capacity.
func (w *idemWindow) setTelemetry(reg *telemetry.Registry) {
	w.obsHits = reg.Counter("idem_hits_total")
	w.obsEvictCap = reg.LabeledCounter("idem_evictions_total", "cause", "capacity")
}

// lookup returns the recorded entry for (user, id), if the window holds
// one, and counts the hit.
func (w *idemWindow) lookup(user, id string) (durable.IdemEntry, bool) {
	u := w.users[user]
	if u == nil || u.byID[id] == nil {
		return durable.IdemEntry{}, false
	}
	w.obsHits.Inc()
	return u.byID[id].entry, true
}

// record stores one acknowledged mutation. seq is the op's journal
// sequence (0 when storeless; a private counter substitutes); at is the
// op's simulated acknowledgment time (the journal record's timestamp).
// The first acknowledgment wins: a duplicate record for an ID already
// present is ignored, so replay after a dedup hit cannot clobber the
// original.
func (w *idemWindow) record(user, id, method string, result json.RawMessage, seq uint64, at time.Time) {
	if user == "" || id == "" {
		return
	}
	if !at.IsZero() {
		at = at.UTC()
	}
	if seq == 0 {
		w.fallbackSeq++
		seq = w.fallbackSeq
	} else if seq > w.fallbackSeq {
		w.fallbackSeq = seq
	}
	u, ok := w.users[user]
	if !ok {
		u = &idemUserWin{byID: make(map[string]*idemItem)}
		w.users[user] = u
	}
	if _, dup := u.byID[id]; dup {
		return
	}
	it := &idemItem{seq: seq, entry: durable.IdemEntry{ID: id, Method: method, At: at, Result: result}}
	u.byID[id] = it
	// Sequences almost always arrive ascending; insert from the tail.
	pos := len(u.list)
	for pos > 0 && u.list[pos-1].seq > seq {
		pos--
	}
	u.list = append(u.list, nil)
	copy(u.list[pos+1:], u.list[pos:])
	u.list[pos] = it
	for len(u.list) > w.limit {
		evicted := u.list[0]
		u.list = u.list[1:]
		delete(u.byID, evicted.entry.ID)
		w.obsEvictCap.Inc()
	}
}

// export renders the window in canonical form: users sorted by name,
// entries in acknowledgment (eviction) order.
func (w *idemWindow) export() []durable.IdemUser {
	if len(w.users) == 0 {
		return nil
	}
	names := make([]string, 0, len(w.users))
	for name := range w.users {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]durable.IdemUser, 0, len(names))
	for _, name := range names {
		u := w.users[name]
		entries := make([]durable.IdemEntry, len(u.list))
		for i, it := range u.list {
			entries[i] = it.entry
		}
		out = append(out, durable.IdemUser{User: name, Entries: entries})
	}
	return out
}

// restore rebuilds the window from a snapshot export, renumbering
// entries from 1 in their recorded order. Journal replay then layers its
// ops on top with their (strictly larger) sequence numbers.
func (w *idemWindow) restore(users []durable.IdemUser) {
	w.users = make(map[string]*idemUserWin)
	w.fallbackSeq = 0
	for _, u := range users {
		for _, e := range u.Entries {
			w.record(u.User, e.ID, e.Method, e.Result, 0, e.At)
		}
	}
}

package clarens

import (
	"fmt"
	"sort"
)

// StateStore holds per-user analysis-session state. The GAE's services
// cooperate to "store the state of users' analysis sessions" (paper §3);
// this store gives every Clarens host a persistent, per-user key→value
// space for exactly that: selected datasets, cut definitions, job plan
// drafts, UI layout — whatever an interactive analysis client wants to
// find again at its next login.
//
// The store has no lock of its own: the deployment that holds it guards
// it with its one lock (core.GAE's), under which the state.* rows, the
// checkpoint and recovery all reach it.
type StateStore struct {
	data map[string]map[string]string // user → key → value
}

// NewStateStore creates an empty store.
func NewStateStore() *StateStore {
	return &StateStore{data: make(map[string]map[string]string)}
}

// Set stores a value under the user's key.
func (s *StateStore) Set(user, key, value string) error {
	if user == "" {
		return fmt.Errorf("clarens: state for empty user")
	}
	if key == "" {
		return fmt.Errorf("clarens: empty state key")
	}
	m, ok := s.data[user]
	if !ok {
		m = make(map[string]string)
		s.data[user] = m
	}
	m[key] = value
	return nil
}

// Get fetches the user's value for key.
func (s *StateStore) Get(user, key string) (string, bool) {
	v, ok := s.data[user][key]
	return v, ok
}

// Delete removes a key; it reports whether the key existed.
func (s *StateStore) Delete(user, key string) bool {
	m, ok := s.data[user]
	if !ok {
		return false
	}
	if _, ok := m[key]; !ok {
		return false
	}
	delete(m, key)
	if len(m) == 0 {
		delete(s.data, user)
	}
	return true
}

// Keys lists the user's state keys, sorted.
func (s *StateStore) Keys(user string) []string {
	m := s.data[user]
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Export copies the full user→key→value contents for the durable snapshot
// codec (nil when empty, so an empty store round-trips canonically).
func (s *StateStore) Export() map[string]map[string]string {
	if len(s.data) == 0 {
		return nil
	}
	out := make(map[string]map[string]string, len(s.data))
	for user, m := range s.data {
		um := make(map[string]string, len(m))
		for k, v := range m {
			um[k] = v
		}
		out[user] = um
	}
	return out
}

// Restore replaces the store contents with an exported copy.
func (s *StateStore) Restore(data map[string]map[string]string) {
	s.data = make(map[string]map[string]string, len(data))
	for user, m := range data {
		um := make(map[string]string, len(m))
		for k, v := range m {
			um[k] = v
		}
		s.data[user] = um
	}
}

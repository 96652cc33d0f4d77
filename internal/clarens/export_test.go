package clarens

// Active returns the number of sessions the store holds, expired ones
// included until reaped.
func (s *SessionStore) Active() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

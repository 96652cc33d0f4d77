package steering

import "fmt"

// SessionManager is the paper's §4.2.5 module: "makes sure that the
// authorized users steer the jobs". A user may steer their own jobs;
// designated administrators may steer anyone's.
type SessionManager struct {
	admins map[string]bool
}

// NewSessionManager creates a manager with no administrators.
func NewSessionManager() *SessionManager {
	return &SessionManager{admins: make(map[string]bool)}
}

// GrantAdmin lets user steer any job.
func (m *SessionManager) GrantAdmin(user string) {
	m.admins[user] = true
}

// IsAdmin reports administrator status.
func (m *SessionManager) IsAdmin(user string) bool {
	return m.admins[user]
}

// Authorize checks that user may steer a job owned by owner.
func (m *SessionManager) Authorize(user, owner string) error {
	if user == "" {
		return fmt.Errorf("steering: unauthenticated steering request")
	}
	if user == owner {
		return nil
	}
	if m.IsAdmin(user) {
		return nil
	}
	return fmt.Errorf("steering: user %q may not steer jobs owned by %q", user, owner)
}

package clarens

import (
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/vtime"
)

// User is a principal known to a Clarens host. Grid deployments
// authenticated with X.509 proxies; we model the same trust decisions
// with salted password digests and named roles.
type User struct {
	Name  string
	Roles []string
}

// UserStore holds users and verifies credentials.
type UserStore struct {
	mu    sync.RWMutex
	users map[string]*storedUser
}

type storedUser struct {
	salt   []byte
	digest []byte
	roles  map[string]bool
}

// NewUserStore creates an empty user database.
func NewUserStore() *UserStore {
	return &UserStore{users: make(map[string]*storedUser)}
}

// Add creates or replaces a user with the given password and roles.
func (s *UserStore) Add(name, password string, roles ...string) error {
	if name == "" {
		return fmt.Errorf("clarens: empty user name")
	}
	salt := make([]byte, 16)
	if _, err := rand.Read(salt); err != nil {
		return fmt.Errorf("clarens: generating salt: %w", err)
	}
	u := &storedUser{
		salt:   salt,
		digest: digest(salt, password),
		roles:  make(map[string]bool, len(roles)),
	}
	for _, r := range roles {
		u.roles[r] = true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.users[name] = u
	return nil
}

// Verify checks name/password and returns the user's roles.
func (s *UserStore) Verify(name, password string) (User, error) {
	s.mu.RLock()
	u, ok := s.users[name]
	s.mu.RUnlock()
	if !ok {
		return User{}, ErrBadCredentials
	}
	if subtle.ConstantTimeCompare(u.digest, digest(u.salt, password)) != 1 {
		return User{}, ErrBadCredentials
	}
	roles := make([]string, 0, len(u.roles))
	for r := range u.roles {
		roles = append(roles, r)
	}
	sort.Strings(roles)
	return User{Name: name, Roles: roles}, nil
}

func digest(salt []byte, password string) []byte {
	h := sha256.New()
	h.Write(salt)
	h.Write([]byte(password))
	return h.Sum(nil)
}

// Session is an authenticated attachment to a Clarens host.
type Session struct {
	Token   string
	User    User
	Expires time.Time
}

// SessionStore issues and validates session tokens. Every session lives
// for sessionTTL from its opening, on a clock that does not step back, so
// sessions expire in the order they were opened. Open reaps the expired
// head of that order, so the session of a client that logs in and goes
// away is gone by the first login after it expires.
type SessionStore struct {
	clock vtime.Clock

	mu       sync.Mutex
	sessions map[string]*Session
	opened   []string // tokens in open order; a closed one stays until reaped
}

// sessionTTL is how long a session lives from its opening: Clarens'
// proxy-lifetime-scale default.
const sessionTTL = 12 * time.Hour

// NewSessionStore creates a session store whose sessions expire
// sessionTTL after they open, on clock (nil means the real clock).
func NewSessionStore(clock vtime.Clock) *SessionStore {
	if clock == nil {
		clock = vtime.Real()
	}
	return &SessionStore{clock: clock, sessions: make(map[string]*Session)}
}

// Open creates a session for the user and returns its token.
func (s *SessionStore) Open(u User) (*Session, error) {
	raw := make([]byte, 20)
	if _, err := rand.Read(raw); err != nil {
		return nil, fmt.Errorf("clarens: generating session token: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clock.Now() // read under the lock, so open order is expiry order
	for len(s.opened) > 0 {
		tok := s.opened[0]
		if head, ok := s.sessions[tok]; ok && !now.After(head.Expires) {
			break
		}
		delete(s.sessions, tok)
		s.opened = s.opened[1:]
	}
	sess := &Session{
		Token:   hex.EncodeToString(raw),
		User:    u,
		Expires: now.Add(sessionTTL),
	}
	s.sessions[sess.Token] = sess
	s.opened = append(s.opened, sess.Token)
	return sess, nil
}

// Lookup resolves a token to its live session; expired sessions are
// reaped on access.
func (s *SessionStore) Lookup(token string) (*Session, bool) {
	if token == "" {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[token]
	if !ok {
		return nil, false
	}
	if s.clock.Now().After(sess.Expires) {
		delete(s.sessions, token)
		return nil, false
	}
	return sess, true
}

// Close terminates a session; it reports whether the token was live.
func (s *SessionStore) Close(token string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.sessions[token]
	delete(s.sessions, token)
	return ok
}

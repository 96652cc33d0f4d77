package clarens

import (
	"strings"
	"sync"
)

// ACL is the per-method access control list, made of allow rules. A rule
// names a principal — a user ("alice"), a role ("role:admin"), any
// authenticated caller ("authenticated"), or anyone ("*") — and a method
// pattern: exact ("steering.move"), service-wide ("steering.*"), or
// global ("*").
//
// A call is allowed when some rule matches both its caller and its
// method, and denied otherwise, with built-in exceptions so that a fresh
// host is usable: system.auth, system.listMethods and system.ping are
// public.
type ACL struct {
	mu    sync.RWMutex
	rules []aclRule
}

type aclRule struct {
	principal string
	pattern   string
}

// NewACL creates an empty (deny-by-default) ACL.
func NewACL() *ACL { return &ACL{} }

// Allow grants principal access to methods matching pattern.
func (a *ACL) Allow(principal, pattern string) *ACL {
	if principal == "" || pattern == "" {
		panic("clarens: ACL rule with empty principal or pattern")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.rules = append(a.rules, aclRule{principal: principal, pattern: pattern})
	return a
}

// alwaysPublic lists methods reachable without a session on every host.
var alwaysPublic = map[string]bool{
	"system.auth":        true,
	"system.listMethods": true,
	"system.ping":        true,
}

// Check reports whether the session (nil for anonymous callers) may invoke
// method.
func (a *ACL) Check(sess *Session, method string) bool {
	if alwaysPublic[method] {
		return true
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	for _, r := range a.rules {
		if principalMatches(r.principal, sess) && patternMatches(r.pattern, method) {
			return true
		}
	}
	return false
}

func principalMatches(principal string, sess *Session) bool {
	switch {
	case principal == "*":
		return true
	case principal == "authenticated":
		return sess != nil
	case strings.HasPrefix(principal, "role:"):
		if sess == nil {
			return false
		}
		role := strings.TrimPrefix(principal, "role:")
		for _, r := range sess.User.Roles {
			if r == role {
				return true
			}
		}
		return false
	default:
		return sess != nil && sess.User.Name == principal
	}
}

// patternMatches reports whether pattern — "*", "service.*" or an exact
// method — covers method.
func patternMatches(pattern, method string) bool {
	if pattern == "*" {
		return true
	}
	if svc, ok := strings.CutSuffix(pattern, ".*"); ok {
		return method[:max(strings.LastIndex(method, "."), 0)] == svc
	}
	return pattern == method
}

package clarens

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/vtime"
	"repro/internal/xmlrpc"
)

// Server is a Clarens web-service host: an XML-RPC dispatcher with
// sessions, ACLs, a service registry, and peer-to-peer discovery.
type Server struct {
	Name     string
	Users    *UserStore
	Sessions *SessionStore
	ACL      *ACL

	draining atomic.Bool // read on every RPC

	mu       sync.RWMutex // guards the tables below
	methods  map[string]xmlrpc.Handler
	services map[string]ServiceInfo
	http     map[string]http.Handler // extra plain-HTTP paths (exact match)
	baseURL  string
	peers    []*xmlrpc.Client // one per peer endpoint, made by AddPeer
	httpSrv  *http.Server
}

// NewServer creates a host named name. The clock governs session expiry;
// nil means the real clock.
func NewServer(name string, clock vtime.Clock) *Server {
	s := &Server{
		Name:     name,
		Users:    NewUserStore(),
		Sessions: NewSessionStore(clock),
		ACL:      NewACL(),
		services: make(map[string]ServiceInfo),
		http:     make(map[string]http.Handler),
	}
	s.methods = s.builtins()
	// Built-in ACLs: registry reads are open to all; logout/whoami need a
	// session.
	s.ACL.Allow("*", "registry.*")
	s.ACL.Allow("authenticated", "system.logout")
	s.ACL.Allow("authenticated", "system.whoami")
	return s
}

// dispatch runs one decoded call. An unknown method is refused first;
// then a draining host refuses everything with FaultUnavailable — the one
// fault clients may retry, against this host or a successor; then the
// caller's session must pass the ACL. The session it checked is the
// call's (Caller): no handler looks it up again.
func (s *Server) dispatch(ctx context.Context, method string, args []any) (any, error) {
	ci := callInfoOf(ctx)
	ci.span.Mark("decode")
	s.mu.RLock()
	h, ok := s.methods[method]
	s.mu.RUnlock()
	if !ok {
		return nil, xmlrpc.NewFault(xmlrpc.FaultMethodNotFound, "no such method %q", method)
	}
	if s.Draining() {
		return nil, xmlrpc.NewFault(xmlrpc.FaultUnavailable, "host %s is draining", s.Name)
	}
	sess, _ := s.Sessions.Lookup(ci.token)
	if !s.ACL.Check(sess, method) {
		if sess == nil {
			return nil, xmlrpc.NewFault(xmlrpc.FaultAuth, "method %s requires authentication", method)
		}
		return nil, xmlrpc.NewFault(xmlrpc.FaultAuth, "user %s may not call %s", sess.User.Name, method)
	}
	ci.session = sess
	ci.span.Mark("session")
	return h(ctx, args)
}

// RegisterService hosts a set of methods under the service name and
// records it in the registry. Method keys are bare names ("status"); they
// are exposed as "name.key", replacing any earlier registration.
func (s *Server) RegisterService(name, description string, methods map[string]xmlrpc.Handler) {
	if name == "" {
		panic("clarens: empty service name")
	}
	full := make([]string, 0, len(methods))
	for m, h := range methods {
		if m == "" || h == nil {
			panic(fmt.Sprintf("clarens: service %s: empty method name or nil handler", name))
		}
		full = append(full, name+"."+m)
	}
	// The method list is wire-visible through the registry's service
	// listing; map order must not leak into it.
	sort.Strings(full)
	s.mu.Lock()
	defer s.mu.Unlock()
	for m, h := range methods {
		s.methods[name+"."+m] = h
	}
	s.services[name] = ServiceInfo{
		Name:        name,
		Endpoint:    s.baseURL,
		Description: description,
		Methods:     full,
	}
}

// builtins returns the system.* and registry.* methods every Clarens
// host exposes. Like every hosted service they are strict: a surplus
// argument, or one of the wrong type, is FaultInvalidParams.
func (s *Server) builtins() map[string]xmlrpc.Handler {
	return map[string]xmlrpc.Handler{
		"system.listMethods": func(_ context.Context, args []any) (any, error) {
			if err := decodeArgs(args); err != nil {
				return nil, err
			}
			return s.methodNames(), nil
		},
		"system.ping": func(_ context.Context, args []any) (any, error) {
			if err := decodeArgs(args); err != nil {
				return nil, err
			}
			return s.Name, nil
		},
		"system.auth": func(_ context.Context, args []any) (any, error) {
			var user, pass string
			if err := decodeArgs(args, &user, &pass); err != nil {
				return nil, err
			}
			u, err := s.Users.Verify(user, pass)
			if err != nil {
				return nil, xmlrpc.NewFault(xmlrpc.FaultAuth, "authentication failed for %q", user)
			}
			sess, err := s.Sessions.Open(u)
			if err != nil {
				return nil, err
			}
			return sess.Token, nil
		},
		"system.logout": func(ctx context.Context, args []any) (any, error) {
			if err := decodeArgs(args); err != nil {
				return nil, err
			}
			return s.Sessions.Close(callInfoOf(ctx).token), nil
		},
		"system.whoami": func(ctx context.Context, args []any) (any, error) {
			if err := decodeArgs(args); err != nil {
				return nil, err
			}
			sess := callInfoOf(ctx).session
			if sess == nil {
				return nil, xmlrpc.NewFault(xmlrpc.FaultAuth, "no session")
			}
			return Identity{User: sess.User.Name, Roles: sess.User.Roles}, nil
		},
		"registry.list": func(_ context.Context, args []any) (any, error) {
			if err := decodeArgs(args); err != nil {
				return nil, err
			}
			return s.listServices(), nil
		},
		"registry.lookup": func(_ context.Context, args []any) (any, error) {
			var name string
			if err := decodeArgs(args, &name); err != nil {
				return nil, err
			}
			info, ok := s.lookup(name)
			if !ok {
				return nil, xmlrpc.NewFault(xmlrpc.FaultApplication, "no service %q", name)
			}
			return info, nil
		},
		"registry.peers": func(_ context.Context, args []any) (any, error) {
			if err := decodeArgs(args); err != nil {
				return nil, err
			}
			return s.Peers(), nil
		},
		// registry.discover takes an optional second argument, whether to
		// ask the peers (the default) or this host alone.
		"registry.discover": func(ctx context.Context, args []any) (any, error) {
			var name string
			forward := true
			dst := []any{&name, &forward}
			if len(args) < 2 {
				dst = dst[:1]
			}
			if err := decodeArgs(args, dst...); err != nil {
				return nil, err
			}
			info, ok := s.Discover(ctx, name, forward)
			if !ok {
				return nil, xmlrpc.NewFault(xmlrpc.FaultApplication, "service %q not found in federation", name)
			}
			return info, nil
		},
	}
}

// methodNames returns the hosted method names, sorted.
func (s *Server) methodNames() []string {
	s.mu.RLock()
	names := make([]string, 0, len(s.methods))
	for m := range s.methods {
		names = append(names, m)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Identity is system.whoami's reply: the session's user and roles.
type Identity struct {
	User  string   `xmlrpc:"user"`
	Roles []string `xmlrpc:"roles"`
}

// decodeArgs decodes exactly len(dst) positional arguments into dst.
func decodeArgs(args []any, dst ...any) error {
	p := xmlrpc.Params(args)
	if err := p.Want(len(dst)); err != nil {
		return err
	}
	for i, d := range dst {
		if err := p.Into(i, d); err != nil {
			return err
		}
	}
	return nil
}

// HandleHTTP mounts a plain-HTTP handler at an exact path beside the
// XML-RPC dispatcher ("/metrics", "/healthz"). These paths are served
// directly — no session, ACL or drain check — so read-only
// observability endpoints keep answering while the host drains. The
// XML-RPC surface is unaffected: it serves every path not claimed here.
func (s *Server) HandleHTTP(path string, h http.Handler) {
	if path == "" || path[0] != '/' {
		panic(fmt.Sprintf("clarens: HandleHTTP path %q must start with /", path))
	}
	s.mu.Lock()
	s.http[path] = h
	s.mu.Unlock()
}

// ServeHTTP implements http.Handler: extra plain-HTTP paths mounted by
// HandleHTTP are dispatched directly; everything else moves the session
// and request-ID headers into the request context and is served as an
// XML-RPC call, timed from here (CallSpan).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.http[r.URL.Path]
	s.mu.RUnlock()
	if h != nil {
		h.ServeHTTP(w, r)
		return
	}
	ci := &callInfo{
		token:          r.Header.Get(SessionHeader),
		requestID:      r.Header.Get(RequestIDHeader),
		ResponseWriter: w,
	}
	ci.span.Open()
	xmlrpc.Serve(ci, r.WithContext(context.WithValue(r.Context(), callInfoKey{}, ci)), s.dispatch)
}

// SetBaseURL records the host's public endpoint and rewrites existing
// registry records to it. Tests wiring the server through httptest call
// this with the test server URL.
func (s *Server) SetBaseURL(url string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.baseURL = url
	for name, info := range s.services {
		info.Endpoint = url
		s.services[name] = info
	}
}

// BaseURL returns the configured endpoint ("" before Start/SetBaseURL).
func (s *Server) BaseURL() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.baseURL
}

// Start listens on addr ("host:port"; ":0" picks a free port) and serves
// until Stop. It returns the base URL.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("clarens: listen %s: %w", addr, err)
	}
	url := "http://" + ln.Addr().String()
	srv := &http.Server{Handler: s}
	s.mu.Lock()
	s.httpSrv = srv
	s.mu.Unlock()
	s.SetBaseURL(url)
	go srv.Serve(ln) //nolint:errcheck // Serve always returns on Stop
	return url, nil
}

// SetDraining switches the host in or out of draining mode. A draining
// host answers every call with FaultUnavailable; servers flip it on
// before a graceful stop so clients fail over (or back off) instead of
// queueing behind a dying listener.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Draining reports whether the host is refusing calls ahead of a stop.
func (s *Server) Draining() bool { return s.draining.Load() }

// Stop shuts the HTTP listener down and closes the peer clients' idle
// connections.
func (s *Server) Stop() error {
	s.mu.Lock()
	srv := s.httpSrv
	s.httpSrv = nil
	for _, c := range s.peers {
		c.Close()
	}
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

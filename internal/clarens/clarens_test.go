package clarens

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/vtime"
	"repro/internal/xmlrpc"
)

// startHost spins up a Clarens host on an httptest server with one user
// and one demo service.
func startHost(t *testing.T, clock vtime.Clock) (*Server, *Client) {
	t.Helper()
	srv := NewServer("testhost", clock)
	if err := srv.Users.Add("alice", "secret", "physicist"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Users.Add("bob", "hunter2"); err != nil {
		t.Fatal(err)
	}
	srv.RegisterService("demo", "demo service", map[string]xmlrpc.Handler{
		"echo": func(_ context.Context, args []any) (any, error) { return args, nil },
		"who": func(ctx context.Context, _ []any) (any, error) {
			if user := Caller(ctx); user != "" {
				return user, nil
			}
			return "anonymous", nil
		},
	})
	srv.ACL.Allow("authenticated", "demo.*")
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	srv.SetBaseURL(hs.URL)
	return srv, NewClient(hs.URL)
}

func TestPingIsPublic(t *testing.T) {
	_, c := startHost(t, nil)
	var name string
	if err := c.CallInto(context.Background(), "system.ping", &name); err != nil {
		t.Fatal(err)
	}
	if name != "testhost" {
		t.Fatalf("ping = %q", name)
	}
}

func TestAuthFlow(t *testing.T) {
	_, c := startHost(t, nil)
	ctx := context.Background()
	// Protected method before login.
	if _, err := c.Call(ctx, "demo.echo", 1); !xmlrpc.IsFault(err, xmlrpc.FaultAuth) {
		t.Fatalf("unauthenticated call error = %v", err)
	}
	// Bad credentials.
	if err := c.Login(ctx, "alice", "wrong"); err == nil {
		t.Fatal("bad password accepted")
	}
	if err := c.Login(ctx, "eve", "x"); err == nil {
		t.Fatal("unknown user accepted")
	}
	// Good login.
	if err := c.Login(ctx, "alice", "secret"); err != nil {
		t.Fatal(err)
	}
	if c.Token() == "" {
		t.Fatal("no token after login")
	}
	var who string
	if err := c.CallInto(ctx, "demo.who", &who); err != nil {
		t.Fatal(err)
	}
	if who != "alice" {
		t.Fatalf("who = %q", who)
	}
	// whoami built-in.
	var info Identity
	if err := c.CallInto(ctx, "system.whoami", &info); err != nil {
		t.Fatal(err)
	}
	if info.User != "alice" || len(info.Roles) != 1 || info.Roles[0] != "physicist" {
		t.Fatalf("whoami = %v", info)
	}
	// Logout invalidates the session.
	if err := c.Logout(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call(ctx, "demo.echo", 1); !xmlrpc.IsFault(err, xmlrpc.FaultAuth) {
		t.Fatalf("post-logout call error = %v", err)
	}
}

func TestSessionExpiry(t *testing.T) {
	clock := vtime.NewSimClock()
	srv, c := startHost(t, clock)
	ctx := context.Background()
	if err := c.Login(ctx, "alice", "secret"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call(ctx, "demo.echo", 1); err != nil {
		t.Fatalf("fresh session rejected: %v", err)
	}
	clock.Advance(sessionTTL + time.Hour)
	if _, err := c.Call(ctx, "demo.echo", 1); !xmlrpc.IsFault(err, xmlrpc.FaultAuth) {
		t.Fatalf("expired session error = %v", err)
	}
	if srv.Sessions.Active() != 0 {
		t.Fatalf("expired session not reaped: %d active", srv.Sessions.Active())
	}
}

// TestUnpresentedSessionsAreReaped: sessions whose clients log in and go
// away are never presented again, so nothing but the next login reaps
// them. A thousand such sessions past their TTL leave only the login that
// follows them in the store.
func TestUnpresentedSessionsAreReaped(t *testing.T) {
	clock := vtime.NewSimClock()
	s := NewSessionStore(clock)
	for range 1000 {
		if _, err := s.Open(User{Name: "alice"}); err != nil {
			t.Fatal(err)
		}
	}
	clock.Advance(sessionTTL + time.Hour)
	sess, err := s.Open(User{Name: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	if n := s.Active(); n != 1 {
		t.Fatalf("store holds %d sessions after the TTL passed, want 1", n)
	}
	if _, ok := s.Lookup(sess.Token); !ok {
		t.Fatal("the fresh session was reaped")
	}
}

func TestStolenTokenIsRejected(t *testing.T) {
	_, c := startHost(t, nil)
	c.SetToken("deadbeef")
	if _, err := c.Call(context.Background(), "demo.echo", 1); !xmlrpc.IsFault(err, xmlrpc.FaultAuth) {
		t.Fatalf("bogus token error = %v", err)
	}
	c.SetToken("")
	if c.Token() != "" {
		t.Fatal("SetToken(\"\") kept a token")
	}
}

func TestACLRolesAndDeny(t *testing.T) {
	srv, c := startHost(t, nil)
	srv.RegisterService("steering", "steer jobs", map[string]xmlrpc.Handler{
		"move": func(context.Context, []any) (any, error) { return "moved", nil },
		"kill": func(context.Context, []any) (any, error) { return "killed", nil },
	})
	srv.ACL.Allow("role:physicist", "steering.move")
	ctx := context.Background()

	if err := c.Login(ctx, "alice", "secret"); err != nil { // physicist
		t.Fatal(err)
	}
	if _, err := c.Call(ctx, "steering.move"); err != nil {
		t.Fatalf("role-allowed call failed: %v", err)
	}
	if _, err := c.Call(ctx, "steering.kill"); !xmlrpc.IsFault(err, xmlrpc.FaultAuth) {
		t.Fatalf("method no rule covers was allowed: %v", err)
	}

	bobC := NewClient(c.URL)
	if err := bobC.Login(ctx, "bob", "hunter2"); err != nil { // no role
		t.Fatal(err)
	}
	if _, err := bobC.Call(ctx, "steering.move"); !xmlrpc.IsFault(err, xmlrpc.FaultAuth) {
		t.Fatalf("roleless user allowed: %v", err)
	}
}

// TestACLPatterns: an exact pattern covers one method, "service.*" every
// method of that service and of no other, "*" everything.
func TestACLPatterns(t *testing.T) {
	alice := &Session{User: User{Name: "alice"}}
	bob := &Session{User: User{Name: "bob"}}
	a := NewACL().
		Allow("alice", "svc.read").
		Allow("bob", "svc.*").
		Allow("authenticated", "other.*")
	for _, c := range []struct {
		sess   *Session
		method string
		want   bool
	}{
		{alice, "svc.read", true},
		{alice, "svc.write", false},
		{bob, "svc.write", true},
		{bob, "svcx.write", false},
		{bob, "a.svc.write", false},
		{alice, "other.x", true},
		{nil, "other.x", false},
	} {
		if got := a.Check(c.sess, c.method); got != c.want {
			t.Errorf("Check(%v, %q) = %v, want %v", c.sess, c.method, got, c.want)
		}
	}
	if !NewACL().Allow("*", "*").Check(nil, "any.method") {
		t.Error(`"*" for "*" did not cover an anonymous call`)
	}
}

func TestACLDefaultDeny(t *testing.T) {
	a := NewACL()
	if a.Check(nil, "anything.method") {
		t.Fatal("default allow")
	}
	if !a.Check(nil, "system.auth") || !a.Check(nil, "system.listMethods") {
		t.Fatal("built-in public methods blocked")
	}
}

func TestACLRuleValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty principal accepted")
		}
	}()
	NewACL().Allow("", "x")
}

func TestUserStoreVerify(t *testing.T) {
	us := NewUserStore()
	if err := us.Add("", "pw"); err == nil {
		t.Fatal("empty user name accepted")
	}
	if err := us.Add("carol", "pw", "admin", "ops"); err != nil {
		t.Fatal(err)
	}
	u, err := us.Verify("carol", "pw")
	if err != nil {
		t.Fatal(err)
	}
	if u.Name != "carol" || len(u.Roles) != 2 || u.Roles[0] != "admin" {
		t.Fatalf("user = %+v", u)
	}
	if _, err := us.Verify("carol", "wrong"); err != ErrBadCredentials {
		t.Fatalf("wrong password error = %v", err)
	}
}

func TestRegistryListAndLookup(t *testing.T) {
	_, c := startHost(t, nil)
	ctx := context.Background()
	var svcs []ServiceInfo
	if err := c.CallInto(ctx, "registry.list", &svcs); err != nil {
		t.Fatal(err)
	}
	if len(svcs) != 1 || svcs[0].Name != "demo" {
		t.Fatalf("registry.list = %+v", svcs)
	}
	if len(svcs[0].Methods) != 2 || svcs[0].Methods[0] != "demo.echo" {
		t.Fatalf("methods = %v", svcs[0].Methods)
	}
	if !strings.HasPrefix(svcs[0].Endpoint, "http://") {
		t.Fatalf("endpoint = %q", svcs[0].Endpoint)
	}
	var got ServiceInfo
	if err := c.CallInto(ctx, "registry.lookup", &got, "demo"); err != nil {
		t.Fatal(err)
	}
	if got.Name != "demo" || len(got.Methods) != 2 {
		t.Fatalf("lookup = %v", got)
	}
	if _, err := c.Call(ctx, "registry.lookup", "nope"); err == nil {
		t.Fatal("lookup of missing service succeeded")
	}
}

func TestP2PDiscovery(t *testing.T) {
	// Host A knows nothing; host B hosts "estimator"; A peers with B.
	srvA := NewServer("hostA", nil)
	srvB := NewServer("hostB", nil)
	srvB.RegisterService("estimator", "estimates", map[string]xmlrpc.Handler{
		"runtime": func(context.Context, []any) (any, error) { return 283.0, nil },
	})
	hsA := httptest.NewServer(srvA)
	hsB := httptest.NewServer(srvB)
	defer hsA.Close()
	defer hsB.Close()
	srvA.SetBaseURL(hsA.URL)
	srvB.SetBaseURL(hsB.URL)
	srvA.AddPeer(hsB.URL)
	srvA.AddPeer(hsB.URL) // duplicate ignored
	if got := srvA.Peers(); len(got) != 1 {
		t.Fatalf("peers = %v", got)
	}

	c := NewClient(hsA.URL)
	ctx := context.Background()
	info, err := c.Discover(ctx, "estimator")
	if err != nil {
		t.Fatal(err)
	}
	if info.Endpoint != hsB.URL {
		t.Fatalf("discovered endpoint = %q, want %q", info.Endpoint, hsB.URL)
	}
	// The discovered endpoint is directly callable.
	ec := NewClient(info.Endpoint)
	// estimator.runtime has no ACL on host B — expect an auth fault, which
	// proves the endpoint resolves and dispatches.
	if _, err := ec.Call(ctx, "estimator.runtime"); !xmlrpc.IsFault(err, xmlrpc.FaultAuth) {
		t.Fatalf("discovered service call = %v", err)
	}
	// Unknown service fails across the federation.
	if _, err := c.Discover(ctx, "nothing"); err == nil {
		t.Fatal("discovering a phantom service succeeded")
	}
}

func TestDiscoverLocalWinsOverPeers(t *testing.T) {
	srv := NewServer("host", nil)
	srv.RegisterService("svc", "local", map[string]xmlrpc.Handler{
		"m": func(context.Context, []any) (any, error) { return nil, nil },
	})
	srv.AddPeer("http://127.0.0.1:1") // unreachable; must not matter
	info, ok := srv.Discover(context.Background(), "svc", true)
	if !ok || info.Description != "local" {
		t.Fatalf("Discover = %+v, %v", info, ok)
	}
	// Unknown service with unreachable peer: graceful miss.
	if _, ok := srv.Discover(context.Background(), "ghost", true); ok {
		t.Fatal("phantom discovery")
	}
}

// A host asks a peer through one client, made when the peer is added:
// ten forwarded lookups of a service the peer holds open one connection
// to it, and Stop closes it.
func TestDiscoverReusesPeerConnection(t *testing.T) {
	peer := NewServer("peer", nil)
	peer.RegisterService("estimator", "estimates", map[string]xmlrpc.Handler{
		"runtime": func(context.Context, []any) (any, error) { return 1.0, nil },
	})
	var opened atomic.Int32
	closed := make(chan struct{}, 1)
	hs := httptest.NewUnstartedServer(peer)
	hs.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		switch st {
		case http.StateNew:
			opened.Add(1)
		case http.StateClosed:
			select {
			case closed <- struct{}{}:
			default:
			}
		}
	}
	hs.Start()
	defer hs.Close()
	peer.SetBaseURL(hs.URL)

	host := NewServer("host", nil)
	host.AddPeer(hs.URL)
	for i := 0; i < 10; i++ {
		if info, ok := host.Discover(context.Background(), "estimator", true); !ok || info.Endpoint != hs.URL {
			t.Fatalf("lookup %d: Discover = %+v, %v", i, info, ok)
		}
	}
	if got := opened.Load(); got != 1 {
		t.Fatalf("ten forwarded lookups opened %d connections to the peer, want 1", got)
	}
	if err := host.Stop(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("the peer's connection is still open 5 s after the host's Stop")
	}
}

func TestStartStopRealListener(t *testing.T) {
	srv := NewServer("live", nil)
	url, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	if srv.BaseURL() != url {
		t.Fatalf("BaseURL = %q, want %q", srv.BaseURL(), url)
	}
	c := NewClient(url)
	var name string
	if err := c.CallInto(context.Background(), "system.ping", &name); err != nil {
		t.Fatal(err)
	}
	if name != "live" {
		t.Fatalf("ping = %q", name)
	}
	if err := srv.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Stop(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// TestRegisterServiceValidation: an empty service name is a programming
// error, caught when the service is registered.
func TestRegisterServiceValidation(t *testing.T) {
	echo := func(_ context.Context, args []any) (any, error) { return args, nil }
	for _, methods := range []map[string]xmlrpc.Handler{nil, {"echo": echo}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RegisterService(\"\", %v) did not panic", methods)
				}
			}()
			NewServer("x", nil).RegisterService("", "", methods)
		}()
	}
}

// TestRegisterServicePanicsOnBadMethods: an empty method name or a nil
// handler is caught when the service is registered rather than when it
// is first called, and leaves the method table as it was.
func TestRegisterServicePanicsOnBadMethods(t *testing.T) {
	echo := func(_ context.Context, args []any) (any, error) { return args, nil }
	for _, methods := range []map[string]xmlrpc.Handler{
		{"": echo},
		{"echo": nil},
		{"echo": echo, "": echo},
	} {
		srv := NewServer("x", nil)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RegisterService(\"svc\", %v) did not panic", methods)
				}
			}()
			srv.RegisterService("svc", "", methods)
		}()
		hs := httptest.NewServer(srv)
		var names []string
		err := NewClient(hs.URL).CallInto(context.Background(), "system.listMethods", &names)
		hs.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range names {
			if strings.HasPrefix(n, "svc.") {
				t.Errorf("rejected registration %v left %s in the table", methods, n)
			}
		}
	}
}

// TestMethodsIncludeBuiltinsAndService: system.listMethods is a host
// builtin whose reply is every hosted method, itself included, sorted.
func TestMethodsIncludeBuiltinsAndService(t *testing.T) {
	_, c := startHost(t, nil)
	var names []string
	if err := c.CallInto(context.Background(), "system.listMethods", &names); err != nil {
		t.Fatal(err)
	}
	want := []string{"demo.echo", "demo.who", "registry.discover", "registry.list", "registry.lookup", "registry.peers",
		"system.auth", "system.listMethods", "system.logout", "system.ping", "system.whoami"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("listMethods = %v\nwant %v", names, want)
	}
}

// TestSystemListMethods: a service registered while the host serves
// shows up in the next system.listMethods reply, which stays sorted and
// names itself.
func TestSystemListMethods(t *testing.T) {
	srv, c := startHost(t, nil)
	echo := func(_ context.Context, args []any) (any, error) { return args, nil }
	srv.RegisterService("late", "registered after start", map[string]xmlrpc.Handler{"b": echo, "a": echo})
	var names []string
	if err := c.CallInto(context.Background(), "system.listMethods", &names); err != nil {
		t.Fatal(err)
	}
	if !slices.IsSorted(names) {
		t.Errorf("listMethods not sorted: %v", names)
	}
	for _, want := range []string{"late.a", "late.b", "system.listMethods"} {
		if !slices.Contains(names, want) {
			t.Errorf("listMethods missing %s in %v", want, names)
		}
	}
}

func TestStateStore(t *testing.T) {
	s := NewStateStore()
	if err := s.Set("", "k", "v"); err == nil {
		t.Error("empty user accepted")
	}
	if err := s.Set("alice", "", "v"); err == nil {
		t.Error("empty key accepted")
	}
	if err := s.Set("alice", "cuts", "pt>20"); err != nil {
		t.Fatal(err)
	}
	if err := s.Set("alice", "dataset", "run2005A"); err != nil {
		t.Fatal(err)
	}
	if err := s.Set("bob", "cuts", "pt>5"); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Get("alice", "cuts"); !ok || v != "pt>20" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	// Per-user isolation.
	if v, _ := s.Get("bob", "cuts"); v != "pt>5" {
		t.Fatalf("bob sees %q", v)
	}
	if _, ok := s.Get("carol", "cuts"); ok {
		t.Fatal("phantom state")
	}
	keys := s.Keys("alice")
	if len(keys) != 2 || keys[0] != "cuts" || keys[1] != "dataset" {
		t.Fatalf("Keys = %v", keys)
	}
	if !s.Delete("alice", "cuts") || s.Delete("alice", "cuts") {
		t.Fatal("Delete semantics broken")
	}
	if s.Delete("carol", "x") {
		t.Fatal("Delete for unknown user returned true")
	}
}

// TestStateStoreExportRestore: the durable snapshot's user_state section is
// the store's one persistence path; a restored store reads what was exported.
func TestStateStoreExportRestore(t *testing.T) {
	s := NewStateStore()
	s.Set("alice", "k1", "v1")
	s.Set("bob", "k2", "v2")
	fresh := NewStateStore()
	fresh.Set("carol", "stale", "x")
	fresh.Restore(s.Export())
	if v, ok := fresh.Get("alice", "k1"); !ok || v != "v1" {
		t.Fatalf("round trip = %q, %v", v, ok)
	}
	if v, ok := fresh.Get("bob", "k2"); !ok || v != "v2" {
		t.Fatalf("round trip = %q, %v", v, ok)
	}
	if _, ok := fresh.Get("carol", "stale"); ok {
		t.Fatal("Restore kept state the export did not hold")
	}
	if NewStateStore().Export() != nil {
		t.Fatal("an empty store exports a non-nil map")
	}
}

// TestBuiltinsAreStrict: the system.* and registry.* built-ins reject a
// surplus argument, or one of the wrong type, the way every hosted service
// does — registry.discover's optional second argument included, which
// must be a boolean rather than be ignored.
func TestBuiltinsAreStrict(t *testing.T) {
	_, c := startHost(t, nil)
	ctx := context.Background()
	if err := c.Login(ctx, "alice", "secret"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		method string
		args   []any
	}{
		{"system.ping", []any{1}},
		{"system.listMethods", []any{"surplus", 7}},
		{"system.whoami", []any{"x"}},
		{"system.auth", []any{"alice"}},
		{"system.auth", []any{"alice", 7}},
		{"system.auth", []any{"alice", "secret", "x"}},
		{"registry.list", []any{"demo"}},
		{"registry.peers", []any{true}},
		{"registry.lookup", nil},
		{"registry.lookup", []any{"demo", "x"}},
		{"registry.lookup", []any{1}},
		{"registry.discover", nil},
		{"registry.discover", []any{"demo", "no"}},
		{"registry.discover", []any{"demo", 0}},
		{"registry.discover", []any{"demo", false, 1}},
		{"system.logout", []any{"x"}}, // last: a valid logout would end the session
	} {
		if _, err := c.Call(ctx, tc.method, tc.args...); !xmlrpc.IsFault(err, xmlrpc.FaultInvalidParams) {
			t.Errorf("%s%v: %v, want FaultInvalidParams", tc.method, tc.args, err)
		}
	}
	var info ServiceInfo
	if err := c.CallInto(ctx, "registry.discover", &info, "demo", false); err != nil || info.Name != "demo" {
		t.Fatalf("registry.discover with forwarding off = %+v, %v", info, err)
	}
	var ok bool
	if err := c.CallInto(ctx, "system.logout", &ok); err != nil || !ok {
		t.Fatalf("logout = %v, %v", ok, err)
	}
}

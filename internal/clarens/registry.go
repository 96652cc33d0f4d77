package clarens

import (
	"context"
	"slices"
	"sort"
	"time"

	"repro/internal/xmlrpc"
)

// ServiceInfo describes one registered service for lookup and discovery.
type ServiceInfo struct {
	Name        string   `xmlrpc:"name"`     // service prefix, e.g. "jobmon"
	Endpoint    string   `xmlrpc:"endpoint"` // URL of the hosting Clarens server
	Description string   `xmlrpc:"description"`
	Methods     []string `xmlrpc:"methods"` // fully qualified method names
}

// lookup finds a hosted service by name.
func (s *Server) lookup(name string) (ServiceInfo, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	info, ok := s.services[name]
	return info, ok
}

// listServices returns every hosted service sorted by name.
func (s *Server) listServices() []ServiceInfo {
	s.mu.RLock()
	out := make([]ServiceInfo, 0, len(s.services))
	for _, info := range s.services {
		out = append(out, info)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// AddPeer connects this host to another Clarens server's endpoint for
// federated discovery, through one client that every forwarded lookup to
// it reuses, with its connections.
func (s *Server) AddPeer(endpoint string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.peers {
		if c.URL == endpoint {
			return
		}
	}
	c := xmlrpc.NewClient(endpoint)
	c.HTTP.Timeout = 5 * time.Second
	s.peers = append(s.peers, c)
}

// Peers returns the configured peer endpoints.
func (s *Server) Peers() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, len(s.peers))
	for i, c := range s.peers {
		out[i] = c.URL
	}
	return out
}

// Discover resolves a service name locally, then (if forward is true)
// asks each peer with forwarding disabled — one-hop flooding, the shape of
// Clarens' P2P lookup without loop risk. The peer clients are a copy taken
// before the first call, so no network wait holds the host's lock.
func (s *Server) Discover(ctx context.Context, name string, forward bool) (ServiceInfo, bool) {
	if info, ok := s.lookup(name); ok {
		return info, true
	}
	if !forward {
		return ServiceInfo{}, false
	}
	s.mu.RLock()
	peers := slices.Clone(s.peers)
	s.mu.RUnlock()
	for _, c := range peers {
		var info ServiceInfo
		err := c.CallInto(ctx, "registry.discover", &info, name, false)
		if err == nil && info.Name == name {
			return info, true
		}
	}
	return ServiceInfo{}, false
}

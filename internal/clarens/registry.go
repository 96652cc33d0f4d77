package clarens

import (
	"context"
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
// federated discovery.
func (s *Server) AddPeer(endpoint string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.peers {
		if p == endpoint {
			return
		}
	}
	s.peers = append(s.peers, endpoint)
}

// Peers returns the configured peer endpoints.
func (s *Server) Peers() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, len(s.peers))
	copy(out, s.peers)
	return out
}

// Discover resolves a service name locally, then (if forward is true)
// asks each peer with forwarding disabled — one-hop flooding, the shape of
// Clarens' P2P lookup without loop risk. The peers are a copy taken
// before the first call, so no network wait holds the host's lock.
func (s *Server) Discover(ctx context.Context, name string, forward bool) (ServiceInfo, bool) {
	if info, ok := s.lookup(name); ok {
		return info, true
	}
	if !forward {
		return ServiceInfo{}, false
	}
	for _, peer := range s.Peers() {
		c := xmlrpc.NewClient(peer)
		c.HTTP.Timeout = 5 * time.Second
		var info ServiceInfo
		err := c.CallInto(ctx, "registry.discover", &info, name, false)
		c.Close()
		if err == nil && info.Name == name {
			return info, true
		}
	}
	return ServiceInfo{}, false
}

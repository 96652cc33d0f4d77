package clarens

import (
	"sort"
	"sync"
)

// ServiceInfo describes one registered service for lookup and discovery.
type ServiceInfo struct {
	Name        string   `xmlrpc:"name"`     // service prefix, e.g. "jobmon"
	Endpoint    string   `xmlrpc:"endpoint"` // URL of the hosting Clarens server
	Description string   `xmlrpc:"description"`
	Methods     []string `xmlrpc:"methods"` // fully qualified method names
}

// Registry is a Clarens host's service directory. Lookups can be local or
// federated across peers (see Server.Discover).
type Registry struct {
	mu       sync.RWMutex
	services map[string]ServiceInfo
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{services: make(map[string]ServiceInfo)}
}

// Register adds or replaces a service record.
func (r *Registry) Register(info ServiceInfo) {
	if info.Name == "" {
		panic("clarens: registering service with empty name")
	}
	sort.Strings(info.Methods)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.services[info.Name] = info
}

// Lookup finds a service by name.
func (r *Registry) Lookup(name string) (ServiceInfo, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	info, ok := r.services[name]
	return info, ok
}

// List returns every registered service sorted by name.
func (r *Registry) List() []ServiceInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]ServiceInfo, 0, len(r.services))
	for _, info := range r.services {
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

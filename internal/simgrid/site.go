package simgrid

import (
	"fmt"
	"sort"
	"time"
)

// Site is a named computing facility: a set of nodes plus a storage
// element, attached to the grid's network fabric. In the paper's setting a
// site is one Condor pool (Caltech, NUST, ...).
type Site struct {
	Name string

	nodes   []*Node
	storage *Storage
}

// NewSite creates an empty site with its own storage element.
func NewSite(name string) *Site {
	return &Site{Name: name, storage: NewStorage()}
}

// AddNode creates a node inside this site, registered with the engine:
// the node is event-driven, accruing task work lazily and scheduling its
// own completion deadlines, so idle nodes cost the simulation nothing.
func (s *Site) AddNode(e *Engine, name string, mips float64, load Load) *Node {
	n := newNode(e, name, s.Name, mips, load)
	s.nodes = append(s.nodes, n)
	return n
}

// Nodes returns a snapshot of the site's nodes.
func (s *Site) Nodes() []*Node {
	out := make([]*Node, len(s.nodes))
	copy(out, s.nodes)
	return out
}

// Node returns the named node or nil.
func (s *Site) Node(name string) *Node {
	for _, n := range s.nodes {
		if n.Name == name {
			return n
		}
	}
	return nil
}

// Storage returns the site's storage element.
func (s *Site) Storage() *Storage { return s.storage }

// AvgLoad reports the mean background load across the site's nodes at t —
// the quantity a MonALISA farm snapshot would publish.
func (s *Site) AvgLoad(t time.Time) float64 {
	nodes := s.Nodes()
	if len(nodes) == 0 {
		return 0
	}
	sum := 0.0
	for _, n := range nodes {
		sum += n.LoadAt(t)
	}
	return sum / float64(len(nodes))
}

// RunningTasks reports the total number of running tasks at the site.
func (s *Site) RunningTasks() int {
	total := 0
	for _, n := range s.Nodes() {
		total += n.RunningCount()
	}
	return total
}

// Grid is the top-level simulated infrastructure: engine, sites, network.
type Grid struct {
	Engine  *Engine
	Network *Network

	sites map[string]*Site
}

// NewGrid creates a grid with the given tick. The seed is ignored: nothing
// in the simulator draws random numbers. The parameter stays only because
// bench/ passes it, and goes with ROADMAP item 4, the benchmark change.
func NewGrid(tick time.Duration, seed int64) *Grid {
	e := NewEngine(tick)
	return &Grid{Engine: e, Network: NewNetwork(e), sites: make(map[string]*Site)}
}

// AddSite creates and registers a site.
func (g *Grid) AddSite(name string) *Site {
	if _, dup := g.sites[name]; dup {
		panic(fmt.Sprintf("simgrid: duplicate site %q", name))
	}
	s := NewSite(name)
	g.sites[name] = s
	return s
}

// Site returns the named site or nil.
func (g *Grid) Site(name string) *Site {
	return g.sites[name]
}

// Sites returns all sites sorted by name.
func (g *Grid) Sites() []*Site {
	out := make([]*Site, 0, len(g.sites))
	for _, s := range g.sites {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SiteNames returns the sorted site names.
func (g *Grid) SiteNames() []string {
	sites := g.Sites()
	out := make([]string, len(sites))
	for i, s := range sites {
		out[i] = s.Name
	}
	return out
}

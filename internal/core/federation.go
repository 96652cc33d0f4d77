package core

import (
	"fmt"

	"repro/internal/clarens"
	"repro/pkg/gae"
)

// Federation is the paper's actual deployment shape: "The Clarens web
// service hosts are the backbone of this GAE" — plural. Each execution
// site runs its own Clarens host carrying the site-local services (the
// decentralized runtime estimator of §6.1 and a site-scoped job
// monitoring facade), while a central host carries the global services
// (steering, scheduler, quota, replica catalog). Hosts are linked as
// peers, so a client attached to any one of them can discover every
// service in the grid through Clarens' peer-to-peer lookup.
type Federation struct {
	// Central is the full GAE on the central host.
	Central *GAE
	// SiteHosts maps each site to its own Clarens server.
	SiteHosts map[string]*clarens.Server

	urls map[string]string
}

// NewFederation builds the multi-host deployment. Site hosts share the
// central host's user database so one credential set works everywhere, as
// a VO-wide certificate would have in the original.
func NewFederation(cfg Config) *Federation {
	g := New(cfg)
	f := &Federation{
		Central:   g,
		SiteHosts: make(map[string]*clarens.Server),
		urls:      make(map[string]string),
	}
	for _, site := range g.Sites() {
		host := clarens.NewServer("clarens-"+site, g.Grid.Engine.Clock())
		host.Users = g.Clarens.Users       // shared principals
		host.Sessions = g.Clarens.Sessions // shared sessions: one login works grid-wide
		f.registerSiteServices(host, site)
		f.SiteHosts[site] = host
	}
	return f
}

// registerSiteServices hosts the site-local service set: the central
// deployment's estimator and job monitoring rows with their site argument
// fixed to one site.
func (f *Federation) registerSiteServices(host *clarens.Server, site string) {
	c := f.Central.client(clarens.Caller)
	svcName := "estimator-" + site
	host.RegisterService(svcName, "site-local runtime estimator", gae.SiteHandlers("estimator", site, c, "runtime", "queuetime"))
	jmName := "jobmon-" + site
	host.RegisterService(jmName, "site-local job monitoring", gae.SiteHandlers("jobmon", site, c, "status", "info"))
	host.ACL.Allow("authenticated", svcName+".*")
	host.ACL.Allow("authenticated", jmName+".*")
}

// Start listens on ephemeral ports for the central host and every site
// host, wires the peer mesh (central ↔ every site), and returns the
// central URL.
func (f *Federation) Start() (string, error) {
	central, err := f.Central.Start("127.0.0.1:0")
	if err != nil {
		return "", err
	}
	f.urls["central"] = central
	for site, host := range f.SiteHosts {
		url, err := host.Start("127.0.0.1:0")
		if err != nil {
			f.Stop()
			return "", fmt.Errorf("core: starting host for %s: %w", site, err)
		}
		f.urls[site] = url
		// Peer mesh: the central host can reach every site host and vice
		// versa, so discovery flows both ways in one hop.
		f.Central.Clarens.AddPeer(url)
		host.AddPeer(central)
	}
	return central, nil
}

// URL returns a started host's endpoint ("central" or a site name).
func (f *Federation) URL(name string) (string, bool) {
	u, ok := f.urls[name]
	return u, ok
}

// Stop shuts every host down.
func (f *Federation) Stop() {
	_ = f.Central.Stop()
	for _, host := range f.SiteHosts {
		_ = host.Stop()
	}
}

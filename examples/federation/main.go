// Federation: the paper's real deployment shape — "The Clarens web
// service hosts are the backbone of this GAE" (plural). Every execution
// site runs its own Clarens host with the site-local services (the
// decentralized runtime estimator, site job monitoring), a central host
// runs the global ones (steering, scheduler, quota, replica catalog), and
// the hosts form a peer-to-peer mesh so a client attached anywhere can
// discover everything.
//
//	go run ./examples/federation
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/internal/clarens"
	"repro/internal/core"
	"repro/internal/scheduler"
	"repro/internal/simgrid"
	"repro/pkg/gae"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(stdout io.Writer) error {
	fed := core.NewFederation(core.Config{
		Sites: []core.SiteSpec{
			{Name: "caltech", Nodes: 2, CostPerCPUSecond: 0.05},
			{Name: "nust", Nodes: 2, Load: simgrid.ConstantLoad(0.2), CostPerCPUSecond: 0.01},
		},
		Links: []core.LinkSpec{{A: "caltech", B: "nust", MBps: 10}},
		Users: []core.UserSpec{{Name: "alice", Password: "pw", Credits: 1000}},
	})
	central, err := fed.Start()
	if err != nil {
		return err
	}
	defer fed.Stop()
	fmt.Fprintln(stdout, "central Clarens host:", central)
	for _, site := range fed.Central.Sites() {
		url, _ := fed.URL(site)
		fmt.Fprintf(stdout, "site host %-8s at %s\n", site, url)
	}

	ctx := context.Background()
	c := clarens.NewClient(central)
	if err := c.Login(ctx, "alice", "pw"); err != nil {
		return err
	}

	// Run a job so caltech's estimator has history.
	cp, err := fed.Central.Scheduler.Submit(&scheduler.JobPlan{
		Name: "train", Owner: "alice",
		Tasks: []scheduler.TaskPlan{{
			ID: "t", CPUSeconds: 90,
			Queue: "short", Partition: "gae", Nodes: 1, JobType: "batch",
		}},
	})
	if err != nil {
		return err
	}
	if err := fed.Central.RunUntilDone(cp, 10*time.Minute); err != nil {
		return err
	}
	fed.Central.Run(5 * time.Second)
	a, _ := cp.Assignment("t")
	fmt.Fprintf(stdout, "\ntraining job ran at %s\n", a.Site)

	// Discover that site's estimator through the P2P mesh and query it
	// with the same session token (sessions are grid-wide).
	svc := "estimator-" + a.Site
	info, err := c.Discover(ctx, svc)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "discovered %s at %s via P2P lookup\n", svc, info.Endpoint)
	sc := clarens.NewClient(info.Endpoint)
	sc.SetToken(c.Token())
	profile := gae.TaskProfile{
		Queue: "short", Partition: "gae", Nodes: 1, JobType: "batch",
		ReqHours: 90.0 / 3600,
	}
	var est gae.RuntimeEstimate
	if err := sc.CallInto(ctx, svc+".runtime", &est, profile); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "site-local runtime estimate: %.0fs from %d similar task(s) [%s]\n",
		est.Seconds, est.Similar, est.Statistic)

	// And the reverse: a client attached to a site host finds the central
	// steering service.
	nustURL, _ := fed.URL("nust")
	nc := clarens.NewClient(nustURL)
	nc.SetToken(c.Token())
	steering, err := nc.Discover(ctx, "steering")
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "steering service discovered from nust's host: %s\n", steering.Endpoint)
	return nil
}

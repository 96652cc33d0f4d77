package gae_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/xmlrpc"
	"repro/pkg/gae"
)

type sampleCall func(ctx context.Context, c *gae.Client) error

// samples holds calls of every client method, keyed by the name the method
// journals, dedups and is measured under: its wire name, but for
// SetPreference's steering.setpreference. Move is called with an empty site
// (left off the wire) and with one.
var samples = map[string][]sampleCall{
	"scheduler.submit": {func(ctx context.Context, c *gae.Client) error {
		_, err := c.Submit(ctx, gae.PlanSpec{Name: "p", Tasks: []gae.TaskSpec{{ID: "t0", CPUSeconds: 20, Queue: "short",
			Nodes: 1, DependsOn: []string{"a"}, Inputs: []gae.FileSpec{{Name: "d.root", SizeMB: 12.5}}}}})
		return err
	}},
	"scheduler.plan":  {func(ctx context.Context, c *gae.Client) error { _, err := c.Plan(ctx, "p"); return err }},
	"scheduler.sites": {func(ctx context.Context, c *gae.Client) error { _, err := c.Sites(ctx); return err }},

	"steering.jobs":   {func(ctx context.Context, c *gae.Client) error { _, err := c.Jobs(ctx); return err }},
	"steering.status": {func(ctx context.Context, c *gae.Client) error { _, err := c.TaskStatus(ctx, "p", "t"); return err }},
	"steering.kill":   {func(ctx context.Context, c *gae.Client) error { return c.Kill(ctx, "p", "t") }},
	"steering.pause":  {func(ctx context.Context, c *gae.Client) error { return c.Pause(ctx, "p", "t") }},
	"steering.resume": {func(ctx context.Context, c *gae.Client) error { return c.Resume(ctx, "p", "t") }},
	"steering.move": {
		func(ctx context.Context, c *gae.Client) error { _, err := c.Move(ctx, "p", "t", ""); return err },
		func(ctx context.Context, c *gae.Client) error { _, err := c.Move(ctx, "p", "t", "siteB"); return err },
	},
	"steering.setpriority": {func(ctx context.Context, c *gae.Client) error { return c.SetPriority(ctx, "p", "t", 3) }},
	"steering.estimate": {func(ctx context.Context, c *gae.Client) error {
		_, err := c.EstimateCompletion(ctx, "p", "t")
		return err
	}},
	"steering.notifications": {func(ctx context.Context, c *gae.Client) error { _, err := c.Notifications(ctx); return err }},
	"steering.preference":    {func(ctx context.Context, c *gae.Client) error { _, err := c.Preference(ctx); return err }},
	"steering.setpreference": {func(ctx context.Context, c *gae.Client) error {
		_, err := c.SetPreference(ctx, "cheap")
		return err
	}},

	"jobmon.info":      {func(ctx context.Context, c *gae.Client) error { _, err := c.Job(ctx, "siteA", 1); return err }},
	"jobmon.status":    {func(ctx context.Context, c *gae.Client) error { _, err := c.JobStatus(ctx, "siteA", 1); return err }},
	"jobmon.progress":  {func(ctx context.Context, c *gae.Client) error { _, err := c.JobProgress(ctx, "siteA", 1); return err }},
	"jobmon.wallclock": {func(ctx context.Context, c *gae.Client) error { _, err := c.JobWallclock(ctx, "siteA", 1); return err }},
	"jobmon.elapsed":   {func(ctx context.Context, c *gae.Client) error { _, err := c.JobElapsed(ctx, "siteA", 1); return err }},
	"jobmon.remaining": {func(ctx context.Context, c *gae.Client) error { _, err := c.JobRemaining(ctx, "siteA", 1); return err }},
	"jobmon.queueposition": {func(ctx context.Context, c *gae.Client) error {
		_, err := c.JobQueuePosition(ctx, "siteA", 1)
		return err
	}},
	"jobmon.list":  {func(ctx context.Context, c *gae.Client) error { _, err := c.JobList(ctx, "siteA"); return err }},
	"jobmon.pools": {func(ctx context.Context, c *gae.Client) error { _, err := c.Pools(ctx); return err }},

	"estimator.runtime": {func(ctx context.Context, c *gae.Client) error {
		_, err := c.EstimateRuntime(ctx, "siteA", gae.TaskProfile{Queue: "short", Partition: "gae", Nodes: 2, JobType: "batch", ReqHours: 0.5})
		return err
	}},
	"estimator.queuetime": {func(ctx context.Context, c *gae.Client) error {
		_, err := c.EstimateQueueTime(ctx, "siteA", 1)
		return err
	}},
	"estimator.transfer": {func(ctx context.Context, c *gae.Client) error {
		_, err := c.EstimateTransfer(ctx, "siteA", "siteB", 1.5)
		return err
	}},

	"quota.balance": {func(ctx context.Context, c *gae.Client) error { _, err := c.Balance(ctx); return err }},
	"quota.cost":    {func(ctx context.Context, c *gae.Client) error { _, err := c.Cost(ctx, "siteA", 1, 2.5); return err }},
	"quota.cheapest": {func(ctx context.Context, c *gae.Client) error {
		_, err := c.Cheapest(ctx, []string{"siteA", "siteB"}, 1, 2.5)
		return err
	}},
	"quota.grant": {func(ctx context.Context, c *gae.Client) error { return c.Grant(ctx, "alice", 1) }},
	"quota.charge": {func(ctx context.Context, c *gae.Client) error {
		_, err := c.ChargeUsage(ctx, gae.ChargeRequest{User: "alice", Site: "siteA", CPUSeconds: 20, MB: 1.5, Note: "n"})
		return err
	}},

	"replica.datasets":  {func(ctx context.Context, c *gae.Client) error { _, err := c.Datasets(ctx); return err }},
	"replica.locations": {func(ctx context.Context, c *gae.Client) error { _, err := c.Replicas(ctx, "d"); return err }},
	"replica.register":  {func(ctx context.Context, c *gae.Client) error { return c.RegisterReplica(ctx, "d", "siteA", 1) }},
	"replica.best":      {func(ctx context.Context, c *gae.Client) error { _, err := c.BestReplica(ctx, "d", "siteA"); return err }},

	"monitor.latest": {func(ctx context.Context, c *gae.Client) error {
		_, err := c.Latest(ctx, "siteA", "LoadAvg")
		return err
	}},
	"monitor.series": {func(ctx context.Context, c *gae.Client) error {
		_, err := c.Series(ctx, "siteA", "LoadAvg", 60)
		return err
	}},
	"monitor.metrics": {func(ctx context.Context, c *gae.Client) error { _, err := c.Metrics(ctx); return err }},
	"monitor.events":  {func(ctx context.Context, c *gae.Client) error { _, err := c.Events(ctx, "", 60); return err }},
	"monitor.sites":   {func(ctx context.Context, c *gae.Client) error { _, err := c.Weather(ctx); return err }},

	"state.set":    {func(ctx context.Context, c *gae.Client) error { return c.SetState(ctx, "k", "v") }},
	"state.get":    {func(ctx context.Context, c *gae.Client) error { _, err := c.GetState(ctx, "k"); return err }},
	"state.keys":   {func(ctx context.Context, c *gae.Client) error { _, err := c.StateKeys(ctx); return err }},
	"state.delete": {func(ctx context.Context, c *gae.Client) error { _, err := c.DeleteState(ctx, "k"); return err }},
}

// sampleNames returns the keys of samples, sorted.
func sampleNames() []string {
	names := make([]string, 0, len(samples))
	for name := range samples {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestRequestGolden pins the request document every client method puts on
// the wire. The files under testdata/wire/requests were written by the
// hand-written remote stubs the method rows replaced; -update-golden
// rewrites them, for an intended wire change only.
func TestRequestGolden(t *testing.T) {
	stub := &idStub{}
	c := dialStub(t, stub)
	ctx := context.Background()
	dir := filepath.Join("testdata", "wire", "requests")
	files := 0
	for _, name := range sampleNames() {
		for i, call := range samples[name] {
			if err := call(ctx, c); !xmlrpc.IsFault(err, xmlrpc.FaultApplication) {
				t.Fatalf("%s: %v, want the stub's fault", name, err)
			}
			file := name + ".xml"
			if i > 0 {
				file = fmt.Sprintf("%s-%d.xml", name, i+1)
			}
			files++
			path := filepath.Join(dir, file)
			got := stub.last().body
			if *updateGolden {
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if want, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
				t.Errorf("%s sent a request that differs from %s (%v):\n got %s\nwant %s", name, path, err, got, want)
			}
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != files {
		t.Errorf("%s holds %d files (%v), the samples sent %d requests", dir, len(entries), err, files)
	}
}

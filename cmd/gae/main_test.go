package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/simgrid"
	"repro/pkg/gae"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

// plan is the plan the golden calls submit and then steer and read.
const plan = `{"name":"golden","tasks":[` +
	`{"id":"t0","cpu_seconds":600,"queue":"short","nodes":1},` +
	`{"id":"t1","cpu_seconds":1200,"queue":"long","nodes":1,"depends_on":["t0"]},` +
	`{"id":"t2","cpu_seconds":300,"queue":"short","nodes":1}]}`

// goldenCalls are the calls the golden test makes, in order, each
// compared with testdata/<name>.golden: every row of the API, writes
// before the reads that show them, and two calls the command refuses.
// Nothing runs while simulated time stands still, so pausing and
// resuming an idle job fail on the server, as they should.
var goldenCalls = []struct {
	name string
	args []string
}{
	{"scheduler.submit", []string{"scheduler.submit", plan}},
	{"steering.setpriority", []string{"steering.setpriority", "golden", "t0", "7"}},
	{"steering.pause", []string{"steering.pause", "golden", "t2"}},
	{"steering.resume", []string{"steering.resume", "golden", "t2"}},
	{"steering.move", []string{"steering.move", "golden", "t2", "siteA"}},
	{"steering.setpreference", []string{"steering.preference", "cheap"}},
	{"quota.grant", []string{"quota.grant", "bob", "250"}},
	{"quota.charge", []string{"quota.charge", `{"user":"bob","site":"siteA","cpu_seconds":100,"mb":10,"note":"golden"}`}},
	{"replica.register", []string{"replica.register", "run2005A.raw", "siteB", "1200"}},
	{"state.set", []string{"state.set", "note", "hello grid"}},
	{"state.set-other", []string{"state.set", "scratch", "gone soon"}},
	{"state.delete", []string{"state.delete", "scratch"}},

	{"scheduler.plan", []string{"scheduler.plan", "golden"}},
	{"scheduler.sites", []string{"scheduler.sites"}},
	{"steering.jobs", []string{"steering.jobs"}},
	{"steering.status", []string{"steering.status", "golden", "t0"}},
	{"steering.estimate", []string{"steering.estimate", "golden", "t0"}},
	{"steering.notifications", []string{"steering.notifications"}},
	{"steering.preference", []string{"steering.preference"}},
	{"jobmon.info", []string{"jobmon.info", "siteA", "1"}},
	{"jobmon.status", []string{"jobmon.status", "siteA", "1"}},
	{"jobmon.progress", []string{"jobmon.progress", "siteA", "1"}},
	{"jobmon.wallclock", []string{"jobmon.wallclock", "siteA", "1"}},
	{"jobmon.elapsed", []string{"jobmon.elapsed", "siteA", "1"}},
	{"jobmon.remaining", []string{"jobmon.remaining", "siteA", "1"}},
	{"jobmon.queueposition", []string{"jobmon.queueposition", "siteA", "1"}},
	{"jobmon.list", []string{"jobmon.list", "siteA"}},
	{"jobmon.pools", []string{"jobmon.pools"}},
	{"estimator.runtime", []string{"estimator.runtime", "siteA", `{"queue":"short","nodes":1,"req_cpu_hours":1}`}},
	{"estimator.queuetime", []string{"estimator.queuetime", "siteA", "1"}},
	{"estimator.transfer", []string{"estimator.transfer", "siteA", "siteB", "100"}},
	{"quota.balance", []string{"quota.balance"}},
	{"quota.cost", []string{"quota.cost", "siteA", "3600", "100"}},
	{"quota.cheapest", []string{"quota.cheapest", `["siteA","siteB"]`, "3600", "100"}},
	{"replica.datasets", []string{"replica.datasets"}},
	{"replica.locations", []string{"replica.locations", "run2005A.raw"}},
	{"replica.best", []string{"replica.best", "run2005A.raw", "siteA"}},
	{"monitor.latest", []string{"monitor.latest", "siteA", "LoadAvg"}},
	{"monitor.series", []string{"monitor.series", "siteA", "LoadAvg", "300"}},
	{"monitor.metrics", []string{"monitor.metrics"}},
	{"monitor.events", []string{"monitor.events", "", "600"}},
	{"monitor.sites", []string{"monitor.sites"}},
	{"state.get", []string{"state.get", "note"}},
	{"state.keys", []string{"state.keys"}},
	{"steering.kill", []string{"steering.kill", "golden", "t2"}},

	{"wrong-arity", []string{"jobmon.status", "siteA"}},
	{"unknown-method", []string{"jobmon.nosuch", "siteA", "1"}},
}

// TestGoldenCalls runs the command against a deployment served on
// loopback whose simulated time never moves (nothing calls Run), so
// every reply is the same from run to run, and compares what it prints
// with the goldens. Every row of the API must have a call.
func TestGoldenCalls(t *testing.T) {
	url := serve(t)
	covered := map[*gae.Method]bool{}
	for _, c := range goldenCalls {
		if m, err := gae.Lookup(c.args[0], len(c.args)-1); err == nil {
			covered[m] = true
		}
		var out bytes.Buffer
		if err := run(append([]string{"-server", url, "-user", "alice", "-pass", "pw"}, c.args...), &out); err != nil {
			fmt.Fprintf(&out, "error: %v\n", err)
		}
		path := filepath.Join("testdata", c.name+".golden")
		if *update {
			if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update to write it)", c.name, err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("gae %q printed\n%s\nwant (%s)\n%s", c.args, out.Bytes(), path, want)
		}
	}
	for _, m := range gae.Methods() {
		if !covered[m] {
			t.Errorf("row %s (op %s) has no golden call", m.Name, m.Op)
		}
	}
}

// gae load against a server dials it and runs the analysis mix.
func TestLoadDialsServer(t *testing.T) {
	url := serve(t)
	var out bytes.Buffer
	if err := run([]string{"-server", url, "-user", "alice", "-pass", "pw", "load", "-clients", "2", "-ops", "8"}, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.Bytes())
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Target != url || rep.Mix != "analysis" || rep.Ops != 16 || rep.Errors != 0 || rep.Server == nil {
		t.Fatalf("report = %+v", rep)
	}
}

// A second gae load on one data directory recovers the first run's plans
// and keys, and names its own after them: neither run has an error.
func TestLoadTwiceOnOneDataDir(t *testing.T) {
	dir := t.TempDir()
	for i := 1; i <= 2; i++ {
		var out bytes.Buffer
		if err := run([]string{"load", "-clients", "2", "-ops", "8", "-data", dir}, &out); err != nil {
			t.Fatalf("run %d: %v\n%s", i, err, out.Bytes())
		}
		var rep report
		if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Ops != 16 || rep.Errors != 0 {
			t.Fatalf("run %d: %d errors in %d ops (%v)", i, rep.Errors, rep.Ops, rep.ErrorsByOp)
		}
	}
}

// TestLoadRefusesArguments: gae load returns an error, before it loads
// anything, for arguments it cannot run as written.
func TestLoadRefusesArguments(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"a stray argument", []string{"load", "-clients", "1", "-ops", "1", "-data", t.TempDir(), "extra"}, `unexpected argument "extra"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(tc.args, &out); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("run(%q) = %v, want an error containing %q\n%s", tc.args, err, tc.wantErr, out.Bytes())
			}
		})
	}
}

// serve starts a two-site deployment on loopback for the test and
// returns its URL. Nothing runs its engine.
func serve(t *testing.T) string {
	g := core.New(core.Config{
		Sites: []core.SiteSpec{
			{Name: "siteA", Nodes: 2, Load: simgrid.ConstantLoad(0.1), CostPerCPUSecond: 0.05},
			{Name: "siteB", Nodes: 2, Load: simgrid.ConstantLoad(0.3), CostPerCPUSecond: 0.02},
		},
		Links: []core.LinkSpec{{A: "siteA", B: "siteB", MBps: 10, LatencyMS: 50}},
		Users: []core.UserSpec{
			{Name: "alice", Password: "pw", Credits: 1000, Admin: true},
			{Name: "bob", Password: "pw", Credits: 10},
		},
	})
	url, err := g.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Stop() }) //nolint:errcheck
	return url
}

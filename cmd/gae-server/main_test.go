package main

import (
	"context"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/pkg/gae"
)

// quickstart is README's deployment, run from this package's directory.
var quickstart = filepath.Join("..", "..", "testdata", "deployments", "quickstart.json")

// TestRunRefusesArguments: run returns an error, before it serves
// anything, for arguments it cannot run as written.
func TestRunRefusesArguments(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"no deployment", []string{"-addr", "127.0.0.1:0"}, "-deployment is required"},
		{"fault without data", []string{"-deployment", quickstart, "-fault-fsync-after", "1s"}, "-fault-fsync-after needs -data"},
		{"zero accel", []string{"-deployment", quickstart, "-accel", "0"}, "-accel 0 is not positive"},
		{"negative accel", []string{"-deployment", quickstart, "-accel", "-2"}, "-accel -2 is not positive"},
		{"a retired flag", []string{"-deployment", quickstart, "-sites", "a:1:0:0"}, "flag provided but not defined: -sites"},
		{"a missing file", []string{"-deployment", "absent.json"}, "absent.json"},
		{"an invalid file", []string{"-deployment", filepath.Join("..", "..", "testdata", "scenarios", "bursty-tenant.json")}, "unknown field"},
		{"a stray argument", []string{"-deployment", quickstart, "-addr", "127.0.0.1:0", "extra"}, `unexpected argument "extra"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := run(tc.args); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("run(%q) = %v, want an error containing %q", tc.args, err, tc.wantErr)
			}
		})
	}
}

// TestCommittedDeploymentsServe: every file under testdata/deployments
// loads and serves, and its administrator sees its sites over the wire.
func TestCommittedDeploymentsServe(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "deployments", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(paths, quickstart) || len(paths) < 2 {
		t.Fatalf("deployment files %v: want quickstart.json and harness.json among them", paths)
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			cfg, err := core.LoadDeployment(path)
			if err != nil {
				t.Fatal(err)
			}
			i := slices.IndexFunc(cfg.Users, func(u core.UserSpec) bool { return u.Admin })
			if i < 0 {
				t.Fatal("the deployment has no administrator")
			}
			srv, err := NewServer(core.New(cfg), "")
			if err != nil {
				t.Fatal(err)
			}
			url, err := srv.Start("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.G.Stop() })
			ctx := context.Background()
			admin := cfg.Users[i]
			client, err := gae.Dial(ctx, url, gae.WithCredentials(admin.Name, admin.Password))
			if err != nil {
				t.Fatal(err)
			}
			got, err := client.Sites(ctx)
			if err != nil {
				t.Fatal(err)
			}
			var want []string
			for _, s := range cfg.Sites {
				want = append(want, s.Name)
			}
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("scheduler.sites = %v, want %v", got, want)
			}
		})
	}
}

// writeDeployment writes a deployment file with the given JSON arrays of
// sites, links and users, and returns its path.
func writeDeployment(t *testing.T, sites, links, users string) string {
	t.Helper()
	body := `{"Sites": [` + sites + `], "Links": [` + links + `], "Users": [` + users + `]}`
	path := filepath.Join(t.TempDir(), "deployment.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// refuses checks that the deployment file at path does not load, and that
// run reports the loader's error, naming wantErr, without serving.
func refuses(t *testing.T, path, wantErr string) {
	t.Helper()
	_, err := core.LoadDeployment(path)
	if err == nil {
		t.Fatalf("%s loaded; want an error containing %q", path, wantErr)
	}
	if !strings.Contains(err.Error(), wantErr) {
		t.Fatalf("loading %s: error = %v, want %q", path, err, wantErr)
	}
	if runErr := run([]string{"-addr", "127.0.0.1:0", "-deployment", path}); runErr == nil || runErr.Error() != err.Error() {
		t.Fatalf("run with %s = %v, want %v", path, runErr, err)
	}
}

// The link and user tests deploy these sites and this user.
const (
	sitesABC = `{"Name": "a", "Nodes": 1}, {"Name": "b", "Nodes": 1}, {"Name": "c", "Nodes": 1}`
	oneUser  = `{"Name": "alice", "Password": "pw", "Credits": 1, "Admin": true}`
)

func TestParseSites(t *testing.T) {
	cfg, err := core.LoadDeployment(writeDeployment(t,
		`{"Name": "caltech", "Nodes": 4, "Load": 0.2, "CostPerCPUSecond": 0.05},
		 {"Name": "nust", "Nodes": 2, "CostPerCPUSecond": 0.01}`, "", oneUser))
	if err != nil {
		t.Fatal(err)
	}
	specs := cfg.Sites
	if len(specs) != 2 {
		t.Fatalf("loaded %d sites", len(specs))
	}
	if specs[0].Name != "caltech" || specs[0].Nodes != 4 || specs[0].CostPerCPUSecond != 0.05 {
		t.Fatalf("site[0] = %+v", specs[0])
	}
	if specs[0].Load == nil || specs[1].Load == nil {
		t.Fatal("site load function not set")
	}
	epoch := core.New(cfg).Now()
	if v, _ := specs[0].Load.Segment(epoch); v != 0.2 {
		t.Fatalf("site[0] load = %v, want 0.2", v)
	}
	if v, _ := specs[1].Load.Segment(epoch); v != 0 {
		t.Fatalf("site[1] load = %v, want idle", v)
	}
}

// The NaN and ±Inf cost and load rows are Go-built rows of core's
// TestConfigValidate: JSON cannot spell them.
func TestParseSitesMalformed(t *testing.T) {
	for _, tc := range []struct{ name, sites, wantErr string }{
		{"no sites", ``, "Sites: a deployment needs at least one site"},
		{"nodes not a number", `{"Name": "caltech", "Nodes": "four"}`, "Nodes"},
		{"load not a number", `{"Name": "caltech", "Nodes": 4, "Load": "heavy"}`, "Load"},
		{"cost not a number", `{"Name": "caltech", "Nodes": 4, "CostPerCPUSecond": "free"}`, "CostPerCPUSecond"},
		{"negative cost", `{"Name": "caltech", "Nodes": 4, "CostPerCPUSecond": -0.05}`, "Sites[0].CostPerCPUSecond"},
		{"negative nodes", `{"Name": "caltech", "Nodes": -1}`, "Sites[0].Nodes"},
		{"zero nodes", `{"Name": "caltech", "Nodes": 0}`, "Sites[0].Nodes"},
		{"no nodes", `{"Name": "caltech"}`, "Sites[0].Nodes"},
		{"load above 1", `{"Name": "caltech", "Nodes": 2, "Load": 1.5}`, "Sites[0].Load"},
		{"load below 0", `{"Name": "caltech", "Nodes": 2, "Load": -0.2}`, "Sites[0].Load"},
		{"empty name", `{"Name": "", "Nodes": 2}`, "Sites[0].Name: empty name"},
		{"duplicate name", `{"Name": "caltech", "Nodes": 2}, {"Name": "caltech", "Nodes": 2}`, `Sites[1].Name: duplicate name "caltech"`},
		{"unknown field", `{"Name": "caltech", "Nodes": 2, "Cores": 8}`, `unknown field "Cores"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			refuses(t, writeDeployment(t, tc.sites, "", oneUser), tc.wantErr)
		})
	}
}

func TestParseLinks(t *testing.T) {
	cfg, err := core.LoadDeployment(writeDeployment(t, sitesABC,
		`{"A": "a", "B": "b", "MBps": 10, "LatencyMS": 50}, {"A": "b", "B": "c", "MBps": 2.5}`, oneUser))
	if err != nil {
		t.Fatal(err)
	}
	want := []core.LinkSpec{{A: "a", B: "b", MBps: 10, LatencyMS: 50}, {A: "b", B: "c", MBps: 2.5}}
	if !slices.Equal(cfg.Links, want) {
		t.Fatalf("links = %+v, want %+v", cfg.Links, want)
	}
	// An empty link list is allowed (single-site deployments).
	if cfg, err := core.LoadDeployment(writeDeployment(t, sitesABC, "", oneUser)); err != nil || len(cfg.Links) != 0 {
		t.Fatalf("empty links = %v, %v", cfg.Links, err)
	}
}

// The NaN and Inf bandwidth rows are Go-built rows of core's
// TestConfigValidate: JSON cannot spell them.
func TestParseLinksMalformed(t *testing.T) {
	for _, tc := range []struct{ name, links, wantErr string }{
		{"bandwidth not a number", `{"A": "a", "B": "b", "MBps": "fast", "LatencyMS": 50}`, "MBps"},
		{"latency not a number", `{"A": "a", "B": "b", "MBps": 10, "LatencyMS": "soon"}`, "LatencyMS"},
		{"zero bandwidth", `{"A": "a", "B": "b", "MBps": 0, "LatencyMS": 50}`, "Links[0].MBps"},
		{"negative bandwidth", `{"A": "a", "B": "b", "MBps": -10, "LatencyMS": 50}`, "Links[0].MBps"},
		{"negative latency", `{"A": "a", "B": "b", "MBps": 10, "LatencyMS": -5}`, "Links[0].LatencyMS"},
		{"self link", `{"A": "a", "B": "a", "MBps": 10, "LatencyMS": 5}`, "Links[0].B: a link joins two different sites"},
		{"no endpoint", `{"A": "a", "MBps": 10}`, "Links[0].B"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			refuses(t, writeDeployment(t, sitesABC, tc.links, oneUser), tc.wantErr)
		})
	}
}

// A link's endpoints must be configured sites.
func TestParseLinksUnknownSite(t *testing.T) {
	refuses(t, writeDeployment(t, sitesABC,
		`{"A": "a", "B": "b", "MBps": 10, "LatencyMS": 50}, {"A": "a", "B": "d", "MBps": 10, "LatencyMS": 50}`, oneUser),
		`Links[1].B: "d" is not a configured site`)
}

// A user is an administrator only where the file says so.
func TestParseUsers(t *testing.T) {
	cfg, err := core.LoadDeployment(writeDeployment(t, sitesABC, "",
		`{"Name": "alice", "Password": "secret", "Credits": 1000}, {"Name": "bob", "Password": "pw", "Admin": true}`))
	if err != nil {
		t.Fatal(err)
	}
	want := []core.UserSpec{{Name: "alice", Password: "secret", Credits: 1000}, {Name: "bob", Password: "pw", Admin: true}}
	if !slices.Equal(cfg.Users, want) {
		t.Fatalf("users = %+v, want %+v", cfg.Users, want)
	}
}

// The NaN and Inf credit rows are Go-built rows of core's
// TestConfigValidate: JSON cannot spell them.
func TestParseUsersMalformed(t *testing.T) {
	for _, tc := range []struct{ name, users, wantErr string }{
		{"credits not a number", `{"Name": "alice", "Password": "secret", "Credits": "rich"}`, "Credits"},
		{"empty name", `{"Name": "", "Password": "pw", "Credits": 1}`, "Users[0].Name: empty name"},
		{"negative credits", `{"Name": "alice", "Password": "pw", "Credits": -5}`, "Users[0].Credits"},
		{"duplicate name", `{"Name": "alice", "Password": "pw", "Credits": 1}, {"Name": "alice", "Password": "pw", "Credits": 2}`, `Users[1].Name: duplicate name "alice"`},
		{"admin not a boolean", `{"Name": "alice", "Password": "pw", "Admin": "yes"}`, "Admin"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			refuses(t, writeDeployment(t, sitesABC, "", tc.users), tc.wantErr)
		})
	}
}

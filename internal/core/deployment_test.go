package core

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/simgrid"
)

// validConfig is a deployment Validate accepts: three sites, two links
// and two users, each field set to a value a row below can break.
func validConfig() Config {
	return Config{
		Sites: []SiteSpec{
			{Name: "a", Nodes: 4, Load: simgrid.ConstantLoad(0.2), CostPerCPUSecond: 0.05},
			{Name: "b", Nodes: 2, CostPerCPUSecond: 0.01, CostPerTransferMB: 0.02},
			{Name: "c", Nodes: 1},
		},
		Links: []LinkSpec{{A: "a", B: "b", MBps: 10, LatencyMS: 50}, {A: "b", B: "c", MBps: 2.5}},
		Users: []UserSpec{{Name: "alice", Password: "secret", Credits: 1000, Admin: true}, {Name: "bob", Password: "pw"}},
	}
}

// TestConfigValidate: each invalid deployment fails Validate with its
// field named, and New panics with that same error rather than building
// it or failing deep inside simgrid or quota.
func TestConfigValidate(t *testing.T) {
	if err := validConfig().Validate(); err != nil {
		t.Fatalf("valid config: %v", err)
	}
	single := validConfig()
	single.Sites, single.Links = single.Sites[:1], nil
	if err := single.Validate(); err != nil {
		t.Fatalf("one site and no links: %v", err)
	}
	if g := New(validConfig()); len(g.Sites()) != 3 {
		t.Fatalf("built sites %v", g.Sites())
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name, field string
		mutate      func(*Config)
	}{
		// Sites.
		{"no sites", "Sites", func(c *Config) { c.Sites, c.Links = nil, nil }},
		{"negative nodes", "Sites[0].Nodes", func(c *Config) { c.Sites[0].Nodes = -1 }},
		{"zero nodes", "Sites[0].Nodes", func(c *Config) { c.Sites[0].Nodes = 0 }},
		{"NaN load", "Sites[0].Load", func(c *Config) { c.Sites[0].Load = simgrid.ConstantLoad(nan) }},
		{"negative cost", "Sites[0].CostPerCPUSecond", func(c *Config) { c.Sites[0].CostPerCPUSecond = -0.05 }},
		{"NaN cost", "Sites[0].CostPerCPUSecond", func(c *Config) { c.Sites[0].CostPerCPUSecond = nan }},
		{"Inf cost", "Sites[0].CostPerCPUSecond", func(c *Config) { c.Sites[0].CostPerCPUSecond = inf }},
		{"-Inf cost", "Sites[0].CostPerCPUSecond", func(c *Config) { c.Sites[0].CostPerCPUSecond = -inf }},
		{"negative transfer cost", "Sites[1].CostPerTransferMB", func(c *Config) { c.Sites[1].CostPerTransferMB = -1 }},
		{"NaN transfer cost", "Sites[1].CostPerTransferMB", func(c *Config) { c.Sites[1].CostPerTransferMB = nan }},
		{"empty site name", "Sites[0].Name", func(c *Config) { c.Sites[0].Name = "" }},
		{"duplicate site", "Sites[1].Name", func(c *Config) { c.Sites[1].Name = "a" }},
		// Links.
		{"zero bandwidth", "Links[0].MBps", func(c *Config) { c.Links[0].MBps = 0 }},
		{"negative bandwidth", "Links[0].MBps", func(c *Config) { c.Links[0].MBps = -10 }},
		{"NaN bandwidth", "Links[0].MBps", func(c *Config) { c.Links[0].MBps = nan }},
		{"Inf bandwidth", "Links[0].MBps", func(c *Config) { c.Links[0].MBps = inf }},
		{"negative latency", "Links[0].LatencyMS", func(c *Config) { c.Links[0].LatencyMS = -5 }},
		{"self-link", "Links[0].B", func(c *Config) { c.Links[0].B = "a" }},
		{"link to an unknown site", "Links[1].B", func(c *Config) { c.Links[1].B = "d" }},
		// Users.
		{"empty user name", "Users[0].Name", func(c *Config) { c.Users[0].Name = "" }},
		{"NaN credits", "Users[0].Credits", func(c *Config) { c.Users[0].Credits = nan }},
		{"negative credits", "Users[0].Credits", func(c *Config) { c.Users[0].Credits = -5 }},
		{"Inf credits", "Users[0].Credits", func(c *Config) { c.Users[0].Credits = inf }},
		{"duplicate user", "Users[1].Name", func(c *Config) { c.Users[1].Name = "alice" }},

		// A probe of New before Validate existed. It built the first
		// seven as given (0 nodes as 1, -5 credits as 0) and panicked
		// inside simgrid or quota on the last four.
		{"probe: link to a missing site", "Links[0].A", func(c *Config) { c.Links[0].A = "nowhere" }},
		{"probe: NaN load", "Sites[2].Load", func(c *Config) { c.Sites[2].Load = simgrid.ConstantLoad(nan) }},
		{"probe: -3 nodes", "Sites[1].Nodes", func(c *Config) { c.Sites[1].Nodes = -3 }},
		{"probe: 0 nodes", "Sites[2].Nodes", func(c *Config) { c.Sites[2].Nodes = 0 }},
		{"probe: -5 credits", "Users[1].Credits", func(c *Config) { c.Users[1].Credits = -5 }},
		{"probe: duplicate user", "Users[1].Name", func(c *Config) { c.Users[1] = c.Users[0] }},
		{"probe: empty site name", "Sites[2].Name", func(c *Config) { c.Sites[2].Name = "" }},
		{"probe: duplicate site", "Sites[3].Name", func(c *Config) { c.Sites = append(c.Sites, c.Sites[0]) }},
		{"probe: NaN cost", "Sites[1].CostPerCPUSecond", func(c *Config) { c.Sites[1].CostPerCPUSecond = nan }},
		{"probe: self-link", "Links[1].B", func(c *Config) { c.Links[1].B = "b" }},
		{"probe: negative bandwidth", "Links[1].MBps", func(c *Config) { c.Links[1].MBps = -1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := validConfig()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil || !strings.HasPrefix(err.Error(), tc.field+":") {
				t.Fatalf("Validate = %v, want an error naming %s", err, tc.field)
			}
			defer func() {
				if r, _ := recover().(error); r == nil || r.Error() != err.Error() {
					t.Fatalf("New panicked with %v, want %v", r, err)
				}
			}()
			New(cfg)
		})
	}
}

func writeDeployment(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "deployment.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// deploymentFile is validConfig as a file, except for the costs the
// file cannot set.
const deploymentFile = `{
  "Sites": [
    {"Name": "a", "Nodes": 4, "Load": 0.2, "CostPerCPUSecond": 0.05},
    {"Name": "b", "Nodes": 2, "CostPerCPUSecond": 0.01},
    {"Name": "c", "Nodes": 1}
  ],
  "Links": [{"A": "a", "B": "b", "MBps": 10, "LatencyMS": 50}, {"A": "b", "B": "c", "MBps": 2.5}],
  "Users": [{"Name": "alice", "Password": "secret", "Credits": 1000, "Admin": true}, {"Name": "bob", "Password": "pw"}]
}`

func TestLoadDeployment(t *testing.T) {
	cfg, err := LoadDeployment(writeDeployment(t, deploymentFile))
	if err != nil {
		t.Fatal(err)
	}
	want := validConfig()
	want.Sites[1].CostPerTransferMB = 0
	epoch := New(want).Now()
	for i, s := range cfg.Sites {
		w := want.Sites[i]
		if s.Name != w.Name || s.Nodes != w.Nodes || s.CostPerCPUSecond != w.CostPerCPUSecond || s.CostPerTransferMB != w.CostPerTransferMB {
			t.Errorf("site %d = %+v, want %+v", i, s, w)
		}
		wantLoad := 0.0 // an omitted load is idle
		if w.Load != nil {
			wantLoad, _ = w.Load.Segment(epoch)
		}
		if v, until := s.Load.Segment(epoch); v != wantLoad || !until.IsZero() {
			t.Errorf("site %d load = %v until %v, want a constant %v", i, v, until, wantLoad)
		}
	}
	if !reflect.DeepEqual(cfg.Links, want.Links) || !reflect.DeepEqual(cfg.Users, want.Users) {
		t.Fatalf("links %+v, users %+v; want %+v, %+v", cfg.Links, cfg.Users, want.Links, want.Users)
	}
	if cfg.Seed != 0 || cfg.MonitorInterval != 0 || cfg.FairShare != nil {
		t.Fatalf("the file set a field it does not hold: %+v", cfg)
	}
	if _, err := LoadDeployment(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("a missing file loaded")
	}
}

// TestLoadDeploymentRejectsMalformed: a value of the wrong type, a load
// that ConstantLoad would clamp, a field the file does not hold, trailing
// data and an invalid deployment are errors naming the file and the field.
func TestLoadDeploymentRejectsMalformed(t *testing.T) {
	for _, tc := range []struct{ name, old, new, field string }{
		{"nodes not a number", `"Nodes": 4`, `"Nodes": "four"`, "Nodes"},
		{"load not a number", `"Load": 0.2`, `"Load": "heavy"`, "Load"},
		{"cost not a number", `"CostPerCPUSecond": 0.05`, `"CostPerCPUSecond": "free"`, "CostPerCPUSecond"},
		{"load above 1", `"Load": 0.2`, `"Load": 1.5`, "Sites[0].Load"},
		{"load below 0", `"Load": 0.2`, `"Load": -0.2`, "Sites[0].Load"},
		{"bandwidth not a number", `"MBps": 10`, `"MBps": "fast"`, "MBps"},
		{"latency not a number", `"LatencyMS": 50`, `"LatencyMS": "soon"`, "LatencyMS"},
		{"credits not a number", `"Credits": 1000`, `"Credits": "rich"`, "Credits"},
		{"unknown field", `"Sites"`, `"Seed": 1, "Sites"`, `unknown field "Seed"`},
		{"unknown site field", `"Nodes": 1`, `"Nodes": 1, "CostPerTransferMB": 0.5`, `unknown field "CostPerTransferMB"`},
		{"trailing data", "}]\n}", "}]\n} {}", "trailing data"},
		{"invalid deployment", `"B": "c"`, `"B": "d"`, "Links[1].B"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if !strings.Contains(deploymentFile, tc.old) {
				t.Fatalf("the base file has no %s", tc.old)
			}
			path := writeDeployment(t, strings.Replace(deploymentFile, tc.old, tc.new, 1))
			_, err := LoadDeployment(path)
			if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("error %v does not name the file %s and the field %s", err, path, tc.field)
			}
		})
	}
}

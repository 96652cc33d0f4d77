package workload

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// loadScenarios loads every committed scenario file, so a scenario added
// as a file is covered with no code change.
func loadScenarios(t *testing.T) []FairnessScenario {
	t.Helper()
	paths, err := filepath.Glob("../../testdata/scenarios/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no scenario files: %v", err)
	}
	var out []FairnessScenario
	for _, p := range paths {
		sc, err := LoadScenario(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sc)
	}
	return out
}

func TestFairnessScenarioCatalogue(t *testing.T) {
	scenarios := loadScenarios(t)
	if len(scenarios) < 4 {
		t.Fatalf("catalogue = %d scenarios", len(scenarios))
	}
	for _, sc := range scenarios {
		if len(sc.Tenants) < 2 {
			t.Fatalf("%s: one tenant cannot contend: %+v", sc.Name, sc)
		}
	}
	names := map[string]bool{}
	for _, sc := range scenarios {
		names[sc.Name] = true
	}
	for _, name := range []string{"bursty-tenant", "starvation-recovery", "weighted-groups", "federated-flocking"} {
		if !names[name] {
			t.Fatalf("scenario %q missing from %v", name, names)
		}
	}
}

func TestArrivalsAt(t *testing.T) {
	burst := TenantSpec{Name: "burst", Weight: 1, JobCPUSeconds: 10, BurstJobs: 3}
	steady := TenantSpec{Name: "steady", Weight: 1, JobCPUSeconds: 5, SteadyJobs: 4, Every: 10, StartTick: 5}
	both := TenantSpec{Name: "both", Weight: 1, JobCPUSeconds: 5, BurstJobs: 2, SteadyJobs: 2, Every: 3, StartTick: 1}
	arrivals := func(ts TenantSpec) map[int]int {
		out := map[int]int{}
		for tick := 0; tick < 100; tick++ {
			if n := ts.ArrivalsAt(tick); n > 0 {
				out[tick] = n
			}
		}
		return out
	}
	for _, c := range []struct {
		spec TenantSpec
		want map[int]int
	}{
		{burst, map[int]int{0: 3}},
		// Steady arrivals land at StartTick + k·Every.
		{steady, map[int]int{5: 1, 15: 1, 25: 1, 35: 1}},
		// A burst and the stream's first job share StartTick.
		{both, map[int]int{1: 3, 4: 1}},
	} {
		if got := arrivals(c.spec); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s arrivals = %v, want %v", c.spec.Name, got, c.want)
		}
	}
}

func TestScenarioDemandExceedsCapacity(t *testing.T) {
	// Fairness is only observable under contention: every scenario must
	// demand more CPU-seconds than its horizon supplies.
	for _, sc := range loadScenarios(t) {
		demand := 0.0
		for tick := 0; tick < sc.Ticks; tick++ {
			for _, tn := range sc.Tenants {
				demand += float64(tn.ArrivalsAt(tick)) * tn.JobCPUSeconds
			}
		}
		capacity := float64((sc.Machines + sc.FlockMachines) * sc.Ticks)
		if demand <= capacity {
			t.Fatalf("%s: demand %.0f ≤ capacity %.0f, no contention", sc.Name, demand, capacity)
		}
	}
}

// validScenario is the base the malformed cases each break in one field.
func validScenario() FairnessScenario {
	return FairnessScenario{
		Machines: 2,
		Ticks:    100,
		Groups:   []GroupWeight{{Name: "g", Weight: 2}},
		Tenants: []TenantSpec{
			{Name: "a", Group: "g", Weight: 1, JobCPUSeconds: 10, BurstJobs: 3},
			{Name: "b", Weight: 1, JobCPUSeconds: 5, SteadyJobs: 4, Every: 10, StartTick: 5},
		},
	}
}

func writeScenario(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name+".json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadScenario(t *testing.T) {
	body, err := json.Marshal(validScenario())
	if err != nil {
		t.Fatal(err)
	}
	sc, err := LoadScenario(writeScenario(t, "my-scenario", string(body)))
	if err != nil {
		t.Fatal(err)
	}
	want := validScenario()
	want.Name = "my-scenario"
	if !reflect.DeepEqual(sc, want) {
		t.Fatalf("loaded %+v, want %+v", sc, want)
	}
	if _, err := LoadScenario(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("a missing file loaded")
	}
}

// TestLoadScenarioRejectsMalformed: every malformed file is an error that
// names the file and the field — never a panic, a NaN or a silent drop in
// the replay.
func TestLoadScenarioRejectsMalformed(t *testing.T) {
	cases := []struct {
		name, field string
		mutate      func(*FairnessScenario)
	}{
		{"tenant-weight-zero", "Weight", func(s *FairnessScenario) { s.Tenants[0].Weight = 0 }},
		{"tenant-weight-negative", "Weight", func(s *FairnessScenario) { s.Tenants[1].Weight = -1 }},
		{"group-weight-zero", "Weight", func(s *FairnessScenario) { s.Groups[0].Weight = 0 }},
		{"duplicate-tenant", "Tenants", func(s *FairnessScenario) { s.Tenants[1].Name = "a" }},
		{"duplicate-group", "Groups", func(s *FairnessScenario) { s.Groups = append(s.Groups, s.Groups[0]) }},
		{"negative-burst", "BurstJobs", func(s *FairnessScenario) { s.Tenants[1].BurstJobs = -1 }},
		{"negative-steady", "SteadyJobs", func(s *FairnessScenario) { s.Tenants[0].SteadyJobs = -2 }},
		{"negative-start", "StartTick", func(s *FairnessScenario) { s.Tenants[0].StartTick = -1 }},
		{"negative-flock", "FlockMachines", func(s *FairnessScenario) { s.FlockMachines = -1 }},
		{"ticks-zero", "Ticks", func(s *FairnessScenario) { s.Ticks = 0 }},
		{"ticks-negative", "Ticks", func(s *FairnessScenario) { s.Ticks = -5 }},
		{"burst-at-horizon", "StartTick", func(s *FairnessScenario) { s.Tenants[0].StartTick = 100 }},
		{"steady-past-horizon", "SteadyJobs", func(s *FairnessScenario) { s.Tenants[1].SteadyJobs = 11 }},
		{"steady-overflows", "SteadyJobs", func(s *FairnessScenario) { s.Tenants[1].SteadyJobs, s.Tenants[1].Every = 1<<62, 1<<62 }},
		{"no-machines", "Machines", func(s *FairnessScenario) { s.Machines = 0 }},
		{"no-cpu", "JobCPUSeconds", func(s *FairnessScenario) { s.Tenants[0].JobCPUSeconds = 0 }},
		{"steady-without-every", "Every", func(s *FairnessScenario) { s.Tenants[1].Every = 0 }},
		{"no-jobs", "BurstJobs", func(s *FairnessScenario) { s.Tenants[0].BurstJobs = 0 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sc := validScenario()
			c.mutate(&sc)
			body, err := json.Marshal(sc)
			if err != nil {
				t.Fatal(err)
			}
			checkRejected(t, writeScenario(t, c.name, string(body)), c.field)
		})
	}
	// The base is valid, so each case fails on its own field.
	body, _ := json.Marshal(validScenario())
	t.Run("unknown-field", func(t *testing.T) {
		checkRejected(t, writeScenario(t, "unknown-field", `{"Name": "x", `+string(body[1:])), `"Name"`)
	})
	t.Run("trailing-data", func(t *testing.T) {
		checkRejected(t, writeScenario(t, "trailing-data", string(body)+" {}"), "trailing data")
	})
}

func checkRejected(t *testing.T, path, field string) {
	t.Helper()
	_, err := LoadScenario(path)
	if err == nil {
		t.Fatalf("%s loaded", path)
	}
	if msg := err.Error(); !strings.Contains(msg, path) || !strings.Contains(msg, field) {
		t.Fatalf("error %q does not name the file %s and the field %s", msg, path, field)
	}
}

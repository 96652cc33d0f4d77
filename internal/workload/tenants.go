package workload

// Multi-tenant fairness scenarios: deterministic submission schedules in
// which several tenants with different weights, static priorities, and
// arrival patterns compete for the same machines. A scenario is a JSON
// file (testdata/scenarios/<name>.json at the repository root) that
// LoadScenario reads; the fairness simulator (cmd/gae-sim) and the
// fairness benchmark replay it on the simulated grid to show how the
// fair-share subsystem changes allocation over time. Schedules are fully
// deterministic — no randomness — so the emitted allocation history is
// byte-stable across runs.

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"

	"repro/internal/jsonfile"
)

// TenantSpec is one tenant's demand pattern inside a scenario. A tenant
// may submit a burst (BurstJobs jobs all at StartTick) and/or a steady
// stream (SteadyJobs jobs, one every Every ticks, starting at StartTick).
type TenantSpec struct {
	Name     string
	Group    string
	Weight   float64
	Priority int // static job priority carried in the ad

	JobCPUSeconds float64 // work per job on a reference CPU

	BurstJobs  int // jobs submitted at once at StartTick
	SteadyJobs int // jobs submitted one per Every ticks
	Every      int // steady-arrival period in ticks
	StartTick  int
}

// GroupWeight assigns a fair-share weight to a tenant group.
type GroupWeight struct {
	Name   string
	Weight float64
}

// FairnessScenario is a replayable multi-tenant contention scenario.
type FairnessScenario struct {
	// Name is the scenario file's base name; the file does not carry it.
	Name        string `json:"-"`
	Description string
	Tenants     []TenantSpec
	Groups      []GroupWeight // empty: every group weighs 1
	Machines    int           // machines in the primary pool
	// FlockMachines, when positive, adds a second pool of this many
	// machines and enables flocking from the primary pool to it — the
	// federated case, where one fairness state spans both pools.
	FlockMachines int
	Ticks         int // simulation horizon (1 tick = 1 s)
	// HalfLifeSeconds and StarvationWindowSeconds set the fair-share
	// usage decay half-life and starvation guard window: zero selects
	// the fairshare default, a negative value disables the mechanism.
	HalfLifeSeconds         float64
	StarvationWindowSeconds float64
}

// LoadScenario reads the scenario file at path: strict JSON (an unknown
// field or trailing data is an error), named after the file's base name,
// and validated.
func LoadScenario(path string) (FairnessScenario, error) {
	var sc FairnessScenario
	if err := jsonfile.Read(path, &sc); err != nil {
		return sc, fmt.Errorf("workload: %w", err)
	}
	sc.Name = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	if err := sc.Validate(); err != nil {
		return sc, fmt.Errorf("workload: %s: %w", path, err)
	}
	return sc, nil
}

// Validate rejects scenario specs that would crash the replay or
// silently distort the fairness metrics — a tenant that can never
// submit makes a low Jain index look like a scheduler regression
// instead of a spec typo. Each error names the offending field. A tenant
// or group needs a name: the fair-share policy files an unnamed tenant as
// "anonymous" and an unnamed group as the default one, so either would
// silently share another's account.
func (s FairnessScenario) Validate() error {
	if s.Machines <= 0 {
		return errors.New("Machines must be positive")
	}
	if s.FlockMachines < 0 {
		return errors.New("FlockMachines must not be negative")
	}
	if s.Ticks <= 0 {
		return errors.New("Ticks must be positive")
	}
	groups := map[string]bool{}
	for i, g := range s.Groups {
		if g.Name == "" {
			return fmt.Errorf("Groups[%d].Name is empty", i)
		}
		if groups[g.Name] {
			return fmt.Errorf("Groups: duplicate group %q", g.Name)
		}
		groups[g.Name] = true
		if g.Weight <= 0 {
			return fmt.Errorf("group %q: Weight must be positive", g.Name)
		}
	}
	tenants := map[string]bool{}
	for i, t := range s.Tenants {
		if t.Name == "" {
			return fmt.Errorf("Tenants[%d].Name is empty", i)
		}
		if tenants[t.Name] {
			return fmt.Errorf("Tenants: duplicate tenant %q", t.Name)
		}
		tenants[t.Name] = true
		if err := t.validate(s.Ticks); err != nil {
			return fmt.Errorf("tenant %q: %w", t.Name, err)
		}
	}
	return nil
}

func (t TenantSpec) validate(ticks int) error {
	switch {
	case t.Weight <= 0:
		return errors.New("Weight must be positive")
	case t.JobCPUSeconds <= 0:
		return errors.New("JobCPUSeconds must be positive")
	case t.BurstJobs < 0:
		return errors.New("BurstJobs must not be negative")
	case t.SteadyJobs < 0:
		return errors.New("SteadyJobs must not be negative")
	case t.StartTick < 0:
		return errors.New("StartTick must not be negative")
	case t.SteadyJobs > 0 && t.Every <= 0:
		return errors.New("SteadyJobs is set without a positive Every")
	case t.BurstJobs == 0 && t.SteadyJobs == 0:
		return errors.New("BurstJobs and SteadyJobs are both zero: the tenant submits no jobs")
	case t.StartTick >= ticks:
		return fmt.Errorf("StartTick %d is at or past Ticks %d", t.StartTick, ticks)
	case t.SteadyJobs > 0 && t.SteadyJobs-1 > (ticks-1-t.StartTick)/t.Every:
		// The last arrival, StartTick + (SteadyJobs-1)·Every, is at or
		// past the horizon; compared by division so it cannot overflow.
		return fmt.Errorf("SteadyJobs: %d arrivals every %d ticks from tick %d run past Ticks %d",
			t.SteadyJobs, t.Every, t.StartTick, ticks)
	}
	return nil
}

// ArrivalsAt reports how many jobs the tenant submits at tick.
func (t TenantSpec) ArrivalsAt(tick int) int {
	n := 0
	if t.BurstJobs > 0 && tick == t.StartTick {
		n += t.BurstJobs
	}
	if t.SteadyJobs > 0 && t.Every > 0 && tick >= t.StartTick {
		if k := (tick - t.StartTick) / t.Every; k < t.SteadyJobs && (tick-t.StartTick)%t.Every == 0 {
			n++
		}
	}
	return n
}

package workload

// Multi-tenant fairness scenarios: deterministic submission schedules in
// which several tenants with different weights, static priorities, and
// arrival patterns compete for the same machines. The fairness simulator
// (cmd/gae-sim) and the fairness benchmark replay these on the simulated
// grid to show how the fair-share subsystem changes allocation over time.
// Schedules are fully deterministic — no randomness — so the emitted
// allocation history is byte-stable across runs.

import "fmt"

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

// Submission is one job arrival: at Tick, Tenant submits a job of
// CPUSeconds work with the given static Priority.
type Submission struct {
	Tick       int
	Tenant     string
	Priority   int
	CPUSeconds float64
}

// FairnessScenario is a replayable multi-tenant contention scenario.
type FairnessScenario struct {
	Name        string
	Description string
	Tenants     []TenantSpec
	Groups      []GroupWeight // empty: every group weighs 1
	Machines    int           // machines in the primary pool
	// FlockMachines, when positive, adds a second pool of this many
	// machines and enables flocking from the primary pool to it — the
	// federated case, where one fairness state spans both pools.
	FlockMachines int
	Ticks         int // default simulation horizon (1 tick = 1 s)
}

// Validate rejects scenario specs that would silently distort the
// fairness metrics — a tenant that can never submit makes a low Jain
// index look like a scheduler regression instead of a spec typo.
func (s FairnessScenario) Validate() error {
	if s.Machines <= 0 {
		return fmt.Errorf("workload: scenario %q needs machines", s.Name)
	}
	for _, t := range s.Tenants {
		if t.JobCPUSeconds <= 0 {
			return fmt.Errorf("workload: scenario %q tenant %q needs positive JobCPUSeconds", s.Name, t.Name)
		}
		if t.SteadyJobs > 0 && t.Every <= 0 {
			return fmt.Errorf("workload: scenario %q tenant %q sets SteadyJobs without a positive Every", s.Name, t.Name)
		}
		if t.BurstJobs <= 0 && t.SteadyJobs <= 0 {
			return fmt.Errorf("workload: scenario %q tenant %q submits no jobs", s.Name, t.Name)
		}
	}
	return nil
}

// Submissions expands the scenario into its deterministic arrival
// schedule, ordered by tick, then by tenant declaration order, then by
// per-tenant sequence.
func (s FairnessScenario) Submissions() []Submission {
	var out []Submission
	// Expand tick by tick so same-tick arrivals keep declaration order
	// without a sort (sorting would need an extra tie-break key anyway).
	for tick := 0; tick <= s.lastArrival(); tick++ {
		for _, t := range s.Tenants {
			n := t.arrivalsAt(tick)
			for i := 0; i < n; i++ {
				out = append(out, Submission{
					Tick:       tick,
					Tenant:     t.Name,
					Priority:   t.Priority,
					CPUSeconds: t.JobCPUSeconds,
				})
			}
		}
	}
	return out
}

// arrivalsAt reports how many jobs the tenant submits at tick.
func (t TenantSpec) arrivalsAt(tick int) int {
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

// lastArrival is the latest tick at which any tenant submits.
func (s FairnessScenario) lastArrival() int {
	last := 0
	for _, t := range s.Tenants {
		end := t.StartTick
		if t.SteadyJobs > 0 && t.Every > 0 {
			end = t.StartTick + (t.SteadyJobs-1)*t.Every
		}
		if end > last {
			last = end
		}
	}
	return last
}

// FairnessScenarios returns the built-in scenario catalogue.
func FairnessScenarios() []FairnessScenario {
	return []FairnessScenario{
		{
			Name: "bursty-tenant",
			Description: "Four equal-weight tenants with equal total demand; " +
				"one dumps its entire demand as a burst at t=0 while the " +
				"others trickle. Fair-share should keep allocations near-equal.",
			Machines: 4,
			Ticks:    900,
			Tenants: []TenantSpec{
				{Name: "mallory", Weight: 1, JobCPUSeconds: 30, BurstJobs: 60},
				{Name: "alice", Weight: 1, JobCPUSeconds: 30, SteadyJobs: 60, Every: 10},
				{Name: "bob", Weight: 1, JobCPUSeconds: 30, SteadyJobs: 60, Every: 10},
				{Name: "carol", Weight: 1, JobCPUSeconds: 30, SteadyJobs: 60, Every: 10},
			},
		},
		{
			Name: "starvation-recovery",
			Description: "A flooding tenant submits at maximum static priority; " +
				"a meek tenant submits small low-priority jobs. Without " +
				"fair-share the meek tenant starves behind the flood; with it, " +
				"decayed usage and the starvation guard recover the meek jobs.",
			Machines: 2,
			Ticks:    900,
			Tenants: []TenantSpec{
				{Name: "flood", Weight: 1, Priority: 10, JobCPUSeconds: 60,
					BurstJobs: 30, SteadyJobs: 40, Every: 15},
				{Name: "meek", Weight: 1, Priority: 0, JobCPUSeconds: 30,
					SteadyJobs: 20, Every: 30},
			},
		},
		{
			Name: "weighted-groups",
			Description: "Group atlas (weight 3, two tenants) versus group cms " +
				"(weight 1, one tenant), all saturating the pool; allocations " +
				"should track group weights, not head counts.",
			Machines: 4,
			Ticks:    600,
			Groups: []GroupWeight{
				{Name: "atlas", Weight: 3},
				{Name: "cms", Weight: 1},
			},
			Tenants: []TenantSpec{
				{Name: "atlas-a", Group: "atlas", Weight: 1, JobCPUSeconds: 30, SteadyJobs: 120, Every: 5},
				{Name: "atlas-b", Group: "atlas", Weight: 1, JobCPUSeconds: 30, SteadyJobs: 120, Every: 5},
				{Name: "cms-a", Group: "cms", Weight: 1, JobCPUSeconds: 30, SteadyJobs: 120, Every: 5},
			},
		},
		{
			Name: "federated-flocking",
			Description: "All tenants submit to a one-machine pool that flocks " +
				"to a three-machine peer; a single fairness state spans the " +
				"federation, so the bursty tenant cannot monopolize the " +
				"overflow capacity either.",
			Machines:      1,
			FlockMachines: 3,
			Ticks:         900,
			Tenants: []TenantSpec{
				{Name: "dana", Weight: 1, JobCPUSeconds: 30, BurstJobs: 60},
				{Name: "erin", Weight: 1, JobCPUSeconds: 30, SteadyJobs: 60, Every: 10},
				{Name: "frank", Weight: 1, JobCPUSeconds: 30, SteadyJobs: 60, Every: 10},
				{Name: "grace", Weight: 1, JobCPUSeconds: 30, SteadyJobs: 60, Every: 10},
			},
		},
	}
}

// FairnessScenarioByName looks up a built-in scenario.
func FairnessScenarioByName(name string) (FairnessScenario, bool) {
	for _, s := range FairnessScenarios() {
		if s.Name == name {
			return s, true
		}
	}
	return FairnessScenario{}, false
}

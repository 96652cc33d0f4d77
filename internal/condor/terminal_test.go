package condor

import (
	"fmt"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"repro/internal/classad"
	"repro/internal/durable"
	"repro/internal/simgrid"
)

// TestCompletionPathLayout pins what a completion reads of its machine:
// Complete names runner and runnerPool, taskDone and releaseClaim
// read owner, and addFree writes freeIdx and viewDirty and appends to
// the bucket archKey names. They sit inside
// one 64-byte span, so the machine costs a completion one cache line.
func TestCompletionPathLayout(t *testing.T) {
	var m machine
	lo, hi := ^uintptr(0), uintptr(0)
	for _, f := range []struct{ off, width uintptr }{
		{unsafe.Offsetof(m.runner), unsafe.Sizeof(m.runner)},
		{unsafe.Offsetof(m.runnerPool), unsafe.Sizeof(m.runnerPool)},
		{unsafe.Offsetof(m.owner), unsafe.Sizeof(m.owner)},
		{unsafe.Offsetof(m.freeIdx), unsafe.Sizeof(m.freeIdx)},
		{unsafe.Offsetof(m.viewDirty), unsafe.Sizeof(m.viewDirty)},
		{unsafe.Offsetof(m.archKey), unsafe.Sizeof(m.archKey)},
	} {
		lo, hi = min(lo, f.off), max(hi, f.off+f.width)
	}
	if hi-lo > 64 {
		t.Errorf("the completion path's machine fields span bytes [%d, %d), want at most 64", lo, hi)
	}
}

// The pool keeps a job record for every job it ever held. 176 bytes is an
// allocator size class; one more word puts every job in the 192-byte one
// (it was 288: three time.Time stamps, two constraint strings, the output
// file name and a task ID).
func TestJobSize(t *testing.T) {
	if got := unsafe.Sizeof(job{}); got > 176 {
		t.Fatalf("unsafe.Sizeof(job{}) = %d bytes, want <= 176", got)
	}
}

// shapedPool is a pool of one machine, "a-node", of the given speed under
// a constant background load. A job on it executes for the (1-load) share
// of the time — that share is its wall-clock, Condor's accumulated
// execution time — and does mips CPU-seconds per second it executes.
func shapedPool(t *testing.T, mips, load float64) (*simgrid.Grid, *Pool) {
	t.Helper()
	g := simgrid.NewGrid(time.Second, 1)
	site := g.AddSite("siteA")
	p := NewPool("poolA", g, site)
	p.AddMachine(site.AddNode(g.Engine, "a-node", mips, simgrid.ConstantLoad(load)), nil)
	return g, p
}

func exportedJob(t *testing.T, p *Pool, id int) durable.JobState {
	t.Helper()
	for _, js := range p.Export(testTTL).Jobs {
		if js.ID == id {
			return js
		}
	}
	t.Fatalf("job %d not exported", id)
	return durable.JobState{}
}

// TestTerminalRecord drives a job to each terminal outcome on machines
// where wall-clock and CPU-seconds differ, and checks what is left: the
// accounting the monitoring view, Checkpoint, WallClock and the snapshot
// report are the scenario's closed-form values, steering a finished job
// fails as it always did, the record holds neither task nor matcher, and a
// pool restored from the snapshot reports the job field for field as the
// live one does.
func TestTerminalRecord(t *testing.T) {
	const need, estimate = 120.0, 200.0
	type outcome struct {
		name   string
		status Status
		// drive submits the job and takes it to its terminal state.
		drive func(t *testing.T, g *simgrid.Grid, p *Pool, ad *classad.Ad) int
		// want gives the job's final CPU-seconds and node on a machine that
		// does rate CPU-seconds per second of simulated time, or -1 when the
		// scenario did not play out; got is the live view, for the outcomes
		// whose CPU is bounded by when they ended rather than fixed.
		want func(rate float64, got JobInfo) (cpu float64, node string)
	}
	outcomes := []outcome{
		{"completed", StatusCompleted,
			func(t *testing.T, g *simgrid.Grid, p *Pool, ad *classad.Ad) int {
				id := mustSubmit(t, p, ad)
				g.Engine.RunFor(400 * time.Second)
				return id
			},
			func(float64, JobInfo) (float64, string) { return need, "a-node" }},
		{"failed by AttrFailAfter", StatusFailed,
			func(t *testing.T, g *simgrid.Grid, p *Pool, ad *classad.Ad) int {
				id := mustSubmit(t, p, ad.Set(AttrFailAfter, 40.0))
				g.Engine.RunFor(400 * time.Second)
				return id
			},
			// The fault trips at the first harvest at or past 40 CPU-seconds.
			func(rate float64, got JobInfo) (float64, string) {
				if got.CPUSeconds < 40 || got.CPUSeconds >= 40+2*rate {
					return -1, ""
				}
				return got.CPUSeconds, "a-node"
			}},
		{"removed while running", StatusRemoved,
			func(t *testing.T, g *simgrid.Grid, p *Pool, ad *classad.Ad) int {
				id := mustSubmit(t, p, ad)
				g.Engine.RunFor(31 * time.Second)
				if err := p.Remove(id); err != nil {
					t.Fatal(err)
				}
				g.Engine.RunFor(20 * time.Second)
				return id
			},
			// It ran from its start to its removal, give or take the tick it
			// was placed in.
			func(rate float64, got JobInfo) (float64, string) {
				ran := got.CompletionTime.Sub(got.StartTime).Seconds()
				if ran != 30 || got.CPUSeconds < ran*rate || got.CPUSeconds > (ran+1)*rate {
					return -1, ""
				}
				return got.CPUSeconds, "a-node"
			}},
		{"removed while idle", StatusRemoved,
			func(t *testing.T, g *simgrid.Grid, p *Pool, ad *classad.Ad) int {
				mustSubmit(t, p, jobAd("blocker", 10_000, 5))
				id := mustSubmit(t, p, ad)
				g.Engine.RunFor(10 * time.Second)
				if err := p.Remove(id); err != nil {
					t.Fatal(err)
				}
				return id
			},
			func(float64, JobInfo) (float64, string) { return 0, "" }},
		{"completed at start by a covering checkpoint", StatusCompleted,
			func(t *testing.T, g *simgrid.Grid, p *Pool, ad *classad.Ad) int {
				id, err := p.SubmitCheckpointed(ad.Set(AttrCheckpoint, true), need)
				if err != nil {
					t.Fatal(err)
				}
				g.Engine.RunFor(5 * time.Second)
				return id
			},
			func(float64, JobInfo) (float64, string) { return need, "" }},
	}
	shapes := []struct{ mips, load float64 }{{2, 0}, {1, 0.5}, {2, 0.5}}
	for _, sh := range shapes {
		for _, oc := range outcomes {
			t.Run(fmt.Sprintf("mips %v load %v/%s", sh.mips, sh.load, oc.name), func(t *testing.T) {
				rate := (1 - sh.load) * sh.mips
				g, p := shapedPool(t, sh.mips, sh.load)
				id := oc.drive(t, g, p, jobAd("alice", need, 0).Set(AttrEstimate, estimate))
				got := mustJob(t, p, id)
				if got.Status != oc.status {
					t.Fatalf("status %v, want %v", got.Status, oc.status)
				}
				cpu, node := oc.want(rate, got)
				if cpu < 0 {
					t.Fatalf("scenario did not play out as designed: %+v", got)
				}
				// Wall-clock is time spent executing: the CPU-seconds at the
				// machine's speed — or, for work no machine here did, at the
				// Mips 1 a checkpoint is carried at.
				wall := time.Duration(cpu / sh.mips * float64(time.Second))
				if node == "" {
					wall = time.Duration(cpu * float64(time.Second))
				}
				progress := cpu / need
				remaining := max(0, estimate-wall.Seconds())
				if got.CPUSeconds != cpu || got.WallClock != wall || got.Progress != progress ||
					got.Node != node || got.RemainingEstimate != remaining {
					t.Errorf("Job: cpu %v wall %v progress %v node %q remaining %v,\n want cpu %v wall %v progress %v node %q remaining %v",
						got.CPUSeconds, got.WallClock, got.Progress, got.Node, got.RemainingEstimate,
						cpu, wall, progress, node, remaining)
				}
				if c, err := p.Checkpoint(id); err != nil || c != cpu {
					t.Errorf("Checkpoint = %v, %v, want %v", c, err, cpu)
				}
				js := exportedJob(t, p, id)
				if js.CPUSeconds != cpu || js.WallClock != wall || Status(js.Status) != oc.status || js.Node != node || !js.LeaseExpires.IsZero() {
					t.Errorf("exported %+v, want cpu %v wall %v status %v node %q and no lease", js, cpu, wall, oc.status, node)
				}

				// Steering a finished job is refused, in the words it always was.
				for _, c := range []struct {
					name string
					call func() error
					want string
				}{
					{"Suspend", func() error { return p.Suspend(id) }, fmt.Sprintf("condor: job %d is %v, cannot suspend", id, oc.status)},
					{"Resume", func() error { return p.Resume(id) }, fmt.Sprintf("condor: job %d is %v, cannot resume", id, oc.status)},
					{"Remove", func() error { return p.Remove(id) }, fmt.Sprintf("condor: job %d already %v", id, oc.status)},
					{"SetPriority", func() error { return p.SetPriority(id, 9) }, fmt.Sprintf("condor: job %d already %v", id, oc.status)},
				} {
					if err := c.call(); err == nil || err.Error() != c.want {
						t.Errorf("%s on the terminal job: %v, want %q", c.name, err, c.want)
					}
				}
				if after := mustJob(t, p, id); !reflect.DeepEqual(after, got) {
					t.Errorf("refused steering changed the record:\n got %+v\nwant %+v", after, got)
				}

				sealed := func(p *Pool, which string) {
					if j := p.job(id); j.task != nil || j.matcher != nil || j.flow != nil || j.claimed {
						t.Errorf("%s terminal record still holds task %v matcher %v flow %v claim %v",
							which, j.task != nil, j.matcher != nil, j.flow != nil, j.claimed)
					}
				}
				sealed(p, "live")

				g2, p2 := shapedPool(t, sh.mips, sh.load)
				g2.Engine.RunFor(g.Engine.Now().Sub(g2.Engine.Now()))
				if err := p2.Restore(p.Export(testTTL)); err != nil {
					t.Fatal(err)
				}
				if restored := mustJob(t, p2, id); !reflect.DeepEqual(restored, got) {
					t.Errorf("restored job differs from the live one:\n got %+v\nwant %+v", restored, got)
				}
				sealed(p2, "restored")
			})
		}
	}
}

// TestRestoredTerminalWallClock is the recovery bug as first reproduced: a
// 100 CPU-second job on a Mips-2 node ran for 50 s, and a pool restored
// from the snapshot reported the CPU-seconds as its wall-clock, 1m40s.
// The snapshot now carries the wall-clock; one written before the field
// existed restores to the old figure.
func TestRestoredTerminalWallClock(t *testing.T) {
	g, p := shapedPool(t, 2, 0)
	id := mustSubmit(t, p, jobAd("alice", 100, 0))
	g.Engine.RunFor(200 * time.Second)
	if got := mustJob(t, p, id); got.Status != StatusCompleted || got.WallClock != 50*time.Second {
		t.Fatalf("live: %v after %v, want completed after 50s", got.Status, got.WallClock)
	}
	st := p.Export(testTTL)

	restoredWall := func(st durable.PoolState) time.Duration {
		g2, p2 := shapedPool(t, 2, 0)
		g2.Engine.RunFor(200 * time.Second)
		if err := p2.Restore(st); err != nil {
			t.Fatal(err)
		}
		return mustJob(t, p2, id).WallClock
	}
	if got := restoredWall(st); got != 50*time.Second {
		t.Errorf("restored wall-clock %v, want 50s", got)
	}
	old := st
	old.Jobs = append([]durable.JobState(nil), st.Jobs...)
	old.Jobs[0].WallClock = 0
	if got := restoredWall(old); got != 100*time.Second {
		t.Errorf("snapshot without wall_clock restored to %v, want the CPU-seconds at Mips 1, 1m40s", got)
	}
}

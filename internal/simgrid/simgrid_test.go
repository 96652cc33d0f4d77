package simgrid

import (
	"math"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestEngineStepAdvancesClock(t *testing.T) {
	e := NewEngine(time.Second)
	start := e.Now()
	e.Step()
	if got := e.Now().Sub(start); got != time.Second {
		t.Fatalf("one step advanced %v, want 1s", got)
	}
	if e.Ticks() != 1 {
		t.Fatalf("Ticks = %d, want 1", e.Ticks())
	}
}

func TestEngineDefaultTick(t *testing.T) {
	if e := NewEngine(0); e.Tick() != time.Second {
		t.Fatalf("default tick = %v", e.Tick())
	}
}

func TestEngineRunFor(t *testing.T) {
	e := NewEngine(time.Second)
	start := e.Now()
	e.RunFor(90 * time.Second)
	if got := e.Now().Sub(start); got != 90*time.Second {
		t.Fatalf("RunFor advanced %v", got)
	}
	// Fractional durations round up to whole ticks.
	e.RunFor(1500 * time.Millisecond)
	if got := e.Now().Sub(start); got != 92*time.Second {
		t.Fatalf("fractional RunFor advanced to %v", got)
	}
}

// TestEngineActorsTickInOrder: components due at one boundary fire in
// registration order, whatever order they asked in.
func TestEngineActorsTickInOrder(t *testing.T) {
	e := NewEngine(time.Second)
	var order []string
	a := e.Register(func(time.Time) { order = append(order, "a") })
	b := e.Register(func(time.Time) { order = append(order, "b") })
	b.Request(e.Now())
	a.Request(e.Now())
	e.Step()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("firing order = %v", order)
	}
}

func TestEngineScheduleFiresOnce(t *testing.T) {
	e := NewEngine(time.Second)
	fired := 0
	var at time.Time
	e.Schedule(5*time.Second, func(now time.Time) { fired++; at = now })
	e.RunFor(4 * time.Second)
	if fired != 0 {
		t.Fatal("timer fired early")
	}
	e.RunFor(10 * time.Second)
	if fired != 1 {
		t.Fatalf("timer fired %d times", fired)
	}
	if got := at.Sub(time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)); got != 5*time.Second {
		t.Fatalf("timer fired at +%v, want +5s", got)
	}
}

func TestEngineScheduleOrdering(t *testing.T) {
	e := NewEngine(time.Second)
	var order []int
	// Same deadline: scheduling order wins. Earlier deadline fires first
	// even when scheduled later.
	e.Schedule(3*time.Second, func(time.Time) { order = append(order, 1) })
	e.Schedule(3*time.Second, func(time.Time) { order = append(order, 2) })
	e.Schedule(2*time.Second, func(time.Time) { order = append(order, 0) })
	e.RunFor(5 * time.Second)
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("timer order = %v", order)
	}
}

func TestEngineScheduleNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule(nil) did not panic")
		}
	}()
	NewEngine(time.Second).Schedule(time.Second, nil)
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine(time.Second)
	hits := 0
	e.NewPoller(func() time.Duration { return time.Second }, func(time.Time) { hits++ })
	if err := e.RunUntil(func() bool { return hits >= 10 }, time.Minute); err != nil {
		t.Fatal(err)
	}
	if hits != 10 {
		t.Fatalf("hits = %d", hits)
	}
	if err := e.RunUntil(func() bool { return false }, 5*time.Second); err == nil {
		t.Fatal("RunUntil(never) did not time out")
	}
}

// testNode returns the engine and the single node of a fresh one-site grid.
func testNode(mips float64, load Load) (*Engine, *Node) {
	g := NewGrid(time.Second, 1)
	return g.Engine, g.AddSite("s").AddNode(g.Engine, "n", mips, load)
}

func TestTaskOnIdleNodeFinishesInNeedSeconds(t *testing.T) {
	e, n := testNode(1, IdleLoad())
	var doneAt time.Time
	task := NewTask(283, func(*Task) { doneAt = e.Now() })
	n.Place(task)
	e.RunFor(300 * time.Second)
	if task.State() != TaskDone {
		t.Fatalf("task state = %v", task.State())
	}
	elapsed := doneAt.Sub(time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC))
	if elapsed != 283*time.Second {
		t.Fatalf("finished in %v, want 283s", elapsed)
	}
	if got := task.WallClock(); got != 283*time.Second {
		t.Fatalf("wall clock = %v, want 283s", got)
	}
	if got := task.CPUSeconds(); got != task.Need {
		t.Fatalf("cpu = %v, want %v", got, task.Need)
	}
}

func TestTaskMipsScaling(t *testing.T) {
	e, fast := testNode(2, IdleLoad())
	task := NewTask(100, nil)
	fast.Place(task)
	e.RunFor(50 * time.Second)
	if task.State() != TaskDone {
		t.Fatalf("2-mips node: task not done after 50s (cpu %v)", task.CPUSeconds())
	}
}

func TestTasksShareNodeFairly(t *testing.T) {
	e, n := testNode(1, IdleLoad())
	a := NewTask(100, nil)
	b := NewTask(100, nil)
	n.Place(a)
	n.Place(b)
	e.RunFor(100 * time.Second)
	if ca, cb := a.CPUSeconds(), b.CPUSeconds(); math.Abs(ca-50) > 1e-9 || math.Abs(cb-50) > 1e-9 {
		t.Fatalf("shared cpu = %v, %v, want 50 each", ca, cb)
	}
}

func TestTaskKill(t *testing.T) {
	e, n := testNode(1, IdleLoad())
	task := NewTask(100, func(*Task) { t.Fatal("killed task reported done") })
	n.Place(task)
	e.RunFor(10 * time.Second)
	task.Kill()
	e.RunFor(200 * time.Second)
	if task.State() != TaskKilled {
		t.Fatalf("state = %v", task.State())
	}
	if got := task.CPUSeconds(); math.Abs(got-10) > 1e-9 {
		t.Fatalf("killed task cpu = %v, want 10", got)
	}
}

func TestKillAfterDoneIsNoOp(t *testing.T) {
	e, n := testNode(1, IdleLoad())
	task := NewTask(5, nil)
	n.Place(task)
	e.RunFor(10 * time.Second)
	task.Kill()
	if task.State() != TaskDone {
		t.Fatalf("Kill demoted a done task to %v", task.State())
	}
}

func TestNodeRemoveDetachesTask(t *testing.T) {
	e, n := testNode(1, IdleLoad())
	task := NewTask(100, nil)
	n.Place(task)
	e.RunFor(10 * time.Second)
	n.Remove(task)
	e.RunFor(50 * time.Second)
	if got := task.CPUSeconds(); math.Abs(got-10) > 1e-9 {
		t.Fatalf("detached task progressed to %v cpu-seconds", got)
	}
	if n.TaskCount() != 0 {
		t.Fatal("node still holds detached task")
	}
}

func TestCompletedTaskLeavesNode(t *testing.T) {
	e, n := testNode(1, IdleLoad())
	n.Place(NewTask(5, nil))
	e.RunFor(10 * time.Second)
	if got := n.TaskCount(); got != 0 {
		t.Fatalf("node holds %d tasks after completion", got)
	}
}

func TestNewTaskValidations(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTask(need=0) did not panic")
		}
	}()
	NewTask(0, nil)
}

func TestLoadFns(t *testing.T) {
	epoch := time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, c := range []struct{ x, want float64 }{{0.5, 0.5}, {1.5, 1}, {-1, 0}} {
		if v, until := ConstantLoad(c.x).Segment(epoch); v != c.want || !until.IsZero() {
			t.Errorf("ConstantLoad(%v) segment = (%v, %v), want (%v, forever)", c.x, v, until, c.want)
		}
	}
	g := NewGrid(time.Second, 1)
	if v, until := g.AddSite("s").AddNode(g.Engine, "n", 1, nil).LoadSegment(epoch); v != 0 || !until.IsZero() {
		t.Errorf("a node given no load: segment (%v, %v), want idle forever", v, until)
	}
	d := DiurnalLoad(0.5, 0.3, 14)
	peak, until := d.Segment(time.Date(2005, 1, 1, 14, 0, 30, 0, time.UTC))
	trough, _ := d.Segment(time.Date(2005, 1, 1, 2, 0, 0, 0, time.UTC))
	if peak <= trough {
		t.Errorf("diurnal peak %v <= trough %v", peak, trough)
	}
	if math.Abs(peak-0.8) > 1e-9 {
		t.Errorf("diurnal peak = %v, want 0.8", peak)
	}
	if want := time.Date(2005, 1, 1, 14, 1, 0, 0, time.UTC); !until.Equal(want) {
		t.Errorf("diurnal segment ends %v, want the minute boundary %v", until, want)
	}
	st := StepLoad(epoch, []time.Duration{time.Minute}, []float64{0.1, 0.9})
	if v, until := st.Segment(epoch.Add(30 * time.Second)); v != 0.1 || !until.Equal(epoch.Add(time.Minute)) {
		t.Errorf("step before boundary = (%v, %v)", v, until)
	}
	if v, until := st.Segment(epoch.Add(2 * time.Minute)); v != 0.9 || !until.IsZero() {
		t.Errorf("step after boundary = (%v, %v), want (0.9, forever)", v, until)
	}
}

func TestStepLoadValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched StepLoad did not panic")
		}
	}()
	StepLoad(time.Time{}, []time.Duration{time.Second}, []float64{0.5})
}

// A level is clamped only when read, and clamping keeps a NaN: StepLoad
// refuses a non-finite level when it is built, as it does bad boundaries.
func TestStepLoadRefusesNonFiniteLevels(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("StepLoad with a level of %v did not panic", bad)
				}
			}()
			StepLoad(time.Time{}, []time.Duration{time.Hour}, []float64{0.5, bad})
		}()
	}
}

func TestNoisyLoadDeterministicAndBounded(t *testing.T) {
	base := ConstantLoad(0.5)
	noisy := NoisyLoad(base, 0.2, 42)
	ts := time.Date(2005, 3, 1, 9, 30, 0, 0, time.UTC)
	a, _ := noisy.Segment(ts)
	b, _ := noisy.Segment(ts.Add(700 * time.Millisecond))
	if a != b {
		t.Fatalf("NoisyLoad not constant over its second: %v vs %v", a, b)
	}
	for i := 0; i < 100; i++ {
		at := ts.Add(time.Duration(i)*time.Second + 250*time.Millisecond)
		v, until := noisy.Segment(at)
		if v < 0 || v > 1 {
			t.Fatalf("NoisyLoad out of range: %v", v)
		}
		if math.Abs(v-0.5) > 0.2+1e-9 {
			t.Fatalf("NoisyLoad outside amplitude: %v", v)
		}
		if want := ts.Add(time.Duration(i+1) * time.Second); !until.Equal(want) {
			t.Fatalf("NoisyLoad segment at %v ends %v, want the next whole second %v", at, until, want)
		}
	}
	// A base boundary inside the second ends the segment there.
	stepped := NoisyLoad(StepLoad(ts, []time.Duration{1500 * time.Millisecond}, []float64{0.2, 0.6}), 0.1, 42)
	if _, until := stepped.Segment(ts.Add(time.Second)); !until.Equal(ts.Add(1500 * time.Millisecond)) {
		t.Fatalf("noise over a step ends %v, want the step at %v", until, ts.Add(1500*time.Millisecond))
	}
	// Zero amplitude adds nothing: the base, with its segments.
	if got := NoisyLoad(base, 0, 7); got != base {
		t.Fatalf("NoisyLoad(base, 0) = %v, want the base", got)
	}
}

func TestSiteAndGrid(t *testing.T) {
	g := NewGrid(time.Second, 7)
	a := g.AddSite("caltech")
	b := g.AddSite("nust")
	if g.Site("caltech") != a || g.Site("nust") != b || g.Site("x") != nil {
		t.Fatal("Site lookup broken")
	}
	names := g.SiteNames()
	if len(names) != 2 || names[0] != "caltech" || names[1] != "nust" {
		t.Fatalf("SiteNames = %v", names)
	}
	a.AddNode(g.Engine, "c1", 1, ConstantLoad(0.2))
	a.AddNode(g.Engine, "c2", 1, ConstantLoad(0.4))
	if got := a.AvgLoad(g.Engine.Now()); math.Abs(got-0.3) > 1e-9 {
		t.Fatalf("AvgLoad = %v", got)
	}
	if n := a.Node("c2"); n == nil || n.Name != "c2" {
		t.Fatal("Node lookup broken")
	}
	if a.Node("zz") != nil {
		t.Fatal("phantom node")
	}
}

func TestGridDuplicateSitePanics(t *testing.T) {
	g := NewGrid(time.Second, 1)
	g.AddSite("a")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate site did not panic")
		}
	}()
	g.AddSite("a")
}

func TestNetworkTransferDuration(t *testing.T) {
	g := NewGrid(time.Second, 1)
	g.AddSite("a")
	g.AddSite("b")
	g.Network.Connect("a", "b", Link{BandwidthMBps: 10, Latency: 100 * time.Millisecond})
	d, err := g.Network.TransferDuration("a", "b", 100) // 100MB at 10MB/s
	if err != nil {
		t.Fatal(err)
	}
	if want := 10*time.Second + 100*time.Millisecond; d != want {
		t.Fatalf("duration = %v, want %v", d, want)
	}
	// Symmetric.
	d2, err := g.Network.TransferDuration("b", "a", 100)
	if err != nil || d2 != d {
		t.Fatalf("reverse = %v, %v", d2, err)
	}
	// Same site: local copy speed.
	dl, err := g.Network.TransferDuration("a", "a", 400)
	if err != nil || dl != time.Second {
		t.Fatalf("local = %v, %v", dl, err)
	}
	// Missing link.
	if _, err := g.Network.TransferDuration("a", "c", 1); err == nil {
		t.Fatal("transfer over missing link succeeded")
	}
	// Negative size.
	if _, err := g.Network.TransferDuration("a", "b", -1); err == nil {
		t.Fatal("negative size accepted")
	}
}

func TestNetworkUtilizationSlowsTransfers(t *testing.T) {
	g := NewGrid(time.Second, 1)
	g.Network.Connect("a", "b", Link{BandwidthMBps: 10})
	base, _ := g.Network.TransferDuration("a", "b", 100)
	g.Network.Connect("a", "b", Link{BandwidthMBps: 10, Utilization: 0.5})
	loaded, _ := g.Network.TransferDuration("a", "b", 100)
	if loaded <= base {
		t.Fatalf("utilized link not slower: %v vs %v", loaded, base)
	}
}

func TestNetworkConnectValidation(t *testing.T) {
	g := NewGrid(time.Second, 1)
	for _, f := range []func(){
		func() { g.Network.Connect("a", "a", Link{BandwidthMBps: 1}) },
		func() { g.Network.Connect("a", "b", Link{}) },
		func() { g.Network.Connect("a", "b", Link{BandwidthMBps: math.NaN()}) },
		func() { g.Network.Connect("a", "b", Link{BandwidthMBps: 1, Utilization: math.NaN()}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad Connect did not panic")
				}
			}()
			f()
		}()
	}
}

func TestStartTransferCompletesInSimTime(t *testing.T) {
	g := NewGrid(time.Second, 1)
	g.Network.Connect("a", "b", Link{BandwidthMBps: 10})
	var done time.Duration
	planned, err := g.Network.StartTransfer("a", "b", 50, func(elapsed time.Duration) { done = elapsed })
	if err != nil {
		t.Fatal(err)
	}
	if planned != 5*time.Second {
		t.Fatalf("planned = %v", planned)
	}
	g.Engine.RunFor(4 * time.Second)
	if done != 0 {
		t.Fatal("transfer completed early")
	}
	g.Engine.RunFor(2 * time.Second)
	if done != planned {
		t.Fatalf("done = %v, want %v", done, planned)
	}
}

func TestMeasureBandwidth(t *testing.T) {
	g := NewGrid(time.Second, 1)
	g.Network.Connect("a", "b", Link{BandwidthMBps: 12.5})
	p, err := g.Network.Probe("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if bw := p.SteadyStateMBps; math.Abs(bw-12.5) > 0.01 {
		t.Fatalf("measured %v MB/s, want ~12.5", bw)
	}
	if _, err := g.Network.Probe("a", "zz"); err == nil {
		t.Fatal("probe over missing link succeeded")
	}
}

func TestStorageBasics(t *testing.T) {
	s := NewStorage()
	if err := s.Put("data.root", 150); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("", 1); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := s.Put("x", -1); err == nil {
		t.Fatal("negative size accepted")
	}
	f, ok := s.Get("data.root")
	if !ok || f.SizeMB != 150 {
		t.Fatalf("Get = %+v, %v", f, ok)
	}
	if err := s.Put("data.root", 200); err != nil {
		t.Fatal(err)
	}
	if f, _ := s.Get("data.root"); f.SizeMB != 200 {
		t.Fatalf("Put did not replace: %+v", f)
	}
	if _, ok := s.Get("other"); ok {
		t.Fatal("Get found a file never stored")
	}
}

// Property: a task under constant load L on a Mips-1 node has done
// ≈ (1-L)·t CPU-seconds after t seconds (before completion).
func TestQuickProgressUnderLoad(t *testing.T) {
	f := func(loadPct uint8, needS uint8) bool {
		load := float64(loadPct%90) / 100 // 0.00 .. 0.89
		need := float64(needS%100) + 50   // 50 .. 149 cpu-seconds
		e, n := testNode(1, ConstantLoad(load))
		task := NewTask(need, nil)
		n.Place(task)
		const runFor = 40
		e.RunFor(runFor * time.Second)
		want := (1 - load) * runFor // under need: at most 40 of at least 50
		return math.Abs(task.CPUSeconds()-want) < 1e-6*need
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: transfer duration is monotone in size and inversely monotone
// in bandwidth.
func TestQuickTransferMonotonicity(t *testing.T) {
	f := func(szA, szB uint16, bw uint8) bool {
		g := NewGrid(time.Second, 1)
		bwv := float64(bw%50) + 1
		g.Network.Connect("a", "b", Link{BandwidthMBps: bwv})
		small, big := float64(szA%1000), float64(szA%1000)+float64(szB%1000)+1
		ds, err1 := g.Network.TransferDuration("a", "b", small)
		db, err2 := g.Network.TransferDuration("a", "b", big)
		return err1 == nil && err2 == nil && db > ds
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestCompletionPathLayout pins where a completion first touches a node:
// the engine pops the node's Wake, then the node settles from synced and
// walks its tasks. The three lead the struct, in that order and with
// nothing between them, so the Wake is read from the node's own first
// cache line rather than from an object allocated apart. A task is 72
// bytes, inside the 80-byte allocation size class, with no lock of its
// own.
func TestCompletionPathLayout(t *testing.T) {
	var n Node
	var end uintptr
	for _, f := range []struct {
		name       string
		off, width uintptr
	}{
		{"wake", unsafe.Offsetof(n.wake), unsafe.Sizeof(n.wake)},
		{"synced", unsafe.Offsetof(n.synced), unsafe.Sizeof(n.synced)},
		{"tasks", unsafe.Offsetof(n.tasks), unsafe.Sizeof(n.tasks)},
	} {
		if f.off != end {
			t.Errorf("Node.%s at offset %d, want %d: wake, synced and tasks lead the struct", f.name, f.off, end)
		}
		end = f.off + f.width
	}
	if got := unsafe.Sizeof(Task{}); got > 72 {
		t.Errorf("unsafe.Sizeof(Task{}) = %d bytes, want <= 72", got)
	}
}

package estimator

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/classad"
	"repro/internal/condor"
	"repro/internal/simgrid"
)

func rec(queue, partition string, nodes int, reqHours, runtime float64) TaskRecord {
	return TaskRecord{
		Queue:          queue,
		Partition:      partition,
		Nodes:          nodes,
		JobType:        "batch",
		Succeeded:      true,
		ReqHours:       reqHours,
		RuntimeSeconds: runtime,
	}
}

func TestHistoryAddLenAll(t *testing.T) {
	h := NewHistory(0)
	for i := 0; i < 5; i++ {
		if err := h.Add(rec("q", "p", 4, 1, float64(100+i))); err != nil {
			t.Fatal(err)
		}
	}
	if h.Len() != 5 {
		t.Fatalf("Len = %d", h.Len())
	}
	all := h.Export()
	if len(all) != 5 || all[4].RuntimeSeconds != 104 {
		t.Fatalf("Export = %+v", all)
	}
	// Export returns a copy.
	all[0].RuntimeSeconds = -999
	if h.Export()[0].RuntimeSeconds == -999 {
		t.Fatal("Export exposed internal slice")
	}
}

func TestHistoryValidation(t *testing.T) {
	h := NewHistory(0)
	for _, bad := range []TaskRecord{
		{RuntimeSeconds: -1},
		{Nodes: -1},
		{ReqHours: -0.5},
	} {
		if err := h.Add(bad); err == nil {
			t.Errorf("invalid record %+v accepted", bad)
		}
	}
}

func TestHistoryCapEvictsOldest(t *testing.T) {
	h := NewHistory(3)
	for i := 0; i < 10; i++ {
		h.Add(rec("q", "p", 1, 1, float64(i)))
	}
	all := h.Export()
	if len(all) != 3 || all[0].RuntimeSeconds != 7 {
		t.Fatalf("capped history = %+v", all)
	}
}

// TestHistoryExportRestore: the durable snapshot's estimator section is the
// history's one persistence path; a restored history holds what was
// exported, under its own capacity bound.
func TestHistoryExportRestore(t *testing.T) {
	h := NewHistory(0)
	r := rec("q32l", "paragon", 16, 2.5, 1234)
	r.Submitted = time.Date(1995, 3, 1, 12, 0, 0, 0, time.UTC)
	h.Add(r)
	h.Add(rec("q32l", "paragon", 16, 2.5, 99))
	h2 := NewHistory(0)
	h2.Add(rec("stale", "x", 1, 1, 1))
	h2.Restore(h.Export())
	if got := h2.Export(); len(got) != 2 || got[0] != r || got[1].RuntimeSeconds != 99 {
		t.Fatalf("round trip = %+v, want %+v first", got, r)
	}
	capped := NewHistory(1)
	capped.Restore(h.Export())
	if got := capped.Export(); len(got) != 1 || got[0].RuntimeSeconds != 99 {
		t.Fatalf("restore into a 1-record history = %+v, want the newest record", got)
	}
}

func TestStatsMeanMedian(t *testing.T) {
	if _, err := Mean(nil); err == nil {
		t.Error("Mean(nil) succeeded")
	}
	if m, _ := Mean([]float64{1, 2, 3}); m != 2 {
		t.Errorf("Mean = %v", m)
	}
	if m, _ := Median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("Median odd = %v", m)
	}
	if m, _ := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("Median even = %v", m)
	}
	if _, err := Median(nil); err == nil {
		t.Error("Median(nil) succeeded")
	}
}

func TestLinearRegressionExactFit(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // y = 1 + 2x
	reg, err := LinearRegression(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(reg.Slope-2) > 1e-12 || math.Abs(reg.Intercept-1) > 1e-12 {
		t.Fatalf("fit = %+v", reg)
	}
	if math.Abs(reg.R2-1) > 1e-12 {
		t.Fatalf("R2 = %v", reg.R2)
	}
	if got := reg.Predict(10); math.Abs(got-21) > 1e-12 {
		t.Fatalf("Predict(10) = %v", got)
	}
}

func TestLinearRegressionErrors(t *testing.T) {
	if _, err := LinearRegression([]float64{1}, []float64{1}); err == nil {
		t.Error("single point accepted")
	}
	if _, err := LinearRegression([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := LinearRegression([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("zero-variance covariate accepted")
	}
}

func TestMAPE(t *testing.T) {
	got, err := MeanAbsolutePercentageError([]float64{100, 200}, []float64{90, 220})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-10) > 1e-9 { // |10%| and |−10%| average to 10%
		t.Fatalf("MAPE = %v", got)
	}
	if _, err := MeanAbsolutePercentageError([]float64{0}, []float64{1}); err == nil {
		t.Error("zero actual accepted")
	}
	if _, err := MeanAbsolutePercentageError(nil, nil); err == nil {
		t.Error("empty accepted")
	}
	if _, err := MeanAbsolutePercentageError([]float64{1}, nil); err == nil {
		t.Error("mismatch accepted")
	}
}

func TestRuntimeEstimatorMeanOfSimilar(t *testing.T) {
	h := NewHistory(0)
	// Three similar tasks in queue q1/partition p/4 nodes.
	for _, rt := range []float64{100, 110, 120} {
		h.Add(rec("q1", "p", 4, 1, rt))
	}
	// Noise in another queue.
	h.Add(rec("q2", "p", 4, 1, 99999))
	e := NewRuntimeEstimator(h)
	e.Statistic = StatMean
	got, err := e.Estimate(rec("q1", "p", 4, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Seconds-110) > 1e-9 {
		t.Fatalf("estimate = %+v", got)
	}
	if got.Similar != 3 || got.Statistic != StatMean {
		t.Fatalf("provenance = %+v", got)
	}
}

func TestRuntimeEstimatorTemplateFallback(t *testing.T) {
	h := NewHistory(0)
	// Only one task matches the full template, but five match queue-only;
	// with minSimilar=3 the estimator must fall through to queue-only.
	h.Add(rec("q1", "p1", 4, 1, 100))
	for _, rt := range []float64{200, 210, 220, 230} {
		h.Add(rec("q1", "px", 8, 1, rt))
	}
	e := NewRuntimeEstimator(h)
	e.Statistic = StatMean
	got, err := e.Estimate(rec("q1", "p1", 4, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got.Similar < 3 {
		t.Fatalf("did not fall through: %+v", got)
	}
}

func TestRuntimeEstimatorUsesSparseMatchWhenNothingBetter(t *testing.T) {
	h := NewHistory(0)
	h.Add(rec("q9", "p", 4, 1, 555))
	e := NewRuntimeEstimator(h)
	e.Statistic = StatMean
	e.Templates = []Template{{AttrQueue}}
	got, err := e.Estimate(rec("q9", "p", 4, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got.Seconds != 555 || got.Similar != 1 {
		t.Fatalf("sparse estimate = %+v", got)
	}
}

func TestRuntimeEstimatorIgnoresFailedRuns(t *testing.T) {
	h := NewHistory(0)
	bad := rec("q", "p", 1, 1, 5)
	bad.Succeeded = false
	h.Add(bad)
	e := NewRuntimeEstimator(h)
	if _, err := e.Estimate(rec("q", "p", 1, 1, 0)); err == nil {
		t.Fatal("estimate from failed-only history succeeded")
	}
}

func TestRuntimeEstimatorRegression(t *testing.T) {
	h := NewHistory(0)
	// Runtime = 3600 × requested hours, exactly.
	for _, hours := range []float64{1, 2, 3, 4} {
		h.Add(rec("q", "p", 4, hours, 3600*hours))
	}
	e := NewRuntimeEstimator(h)
	e.Statistic = StatRegression
	got, err := e.Estimate(rec("q", "p", 4, 2.5, 0))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Seconds-9000) > 1e-6 {
		t.Fatalf("regression estimate = %+v", got)
	}
	if got.Statistic != StatRegression {
		t.Fatalf("statistic = %v, want regression", got.Statistic)
	}
}

func TestRuntimeEstimatorAutoPrefersGoodRegression(t *testing.T) {
	h := NewHistory(0)
	for _, hours := range []float64{1, 2, 3, 4} {
		h.Add(rec("q", "p", 4, hours, 3600*hours))
	}
	e := NewRuntimeEstimator(h) // StatAuto
	got, err := e.Estimate(rec("q", "p", 4, 3.5, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got.Statistic != StatRegression {
		t.Fatalf("auto chose %v", got.Statistic)
	}
	if math.Abs(got.Seconds-12600) > 1e-6 {
		t.Fatalf("auto estimate = %v", got.Seconds)
	}
}

func TestRuntimeEstimatorAutoFallsBackToMean(t *testing.T) {
	h := NewHistory(0)
	// Identical requested hours: regression has zero-variance covariate.
	for _, rt := range []float64{100, 120, 140} {
		h.Add(rec("q", "p", 4, 2, rt))
	}
	e := NewRuntimeEstimator(h)
	got, err := e.Estimate(rec("q", "p", 4, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got.Statistic != StatMean || math.Abs(got.Seconds-120) > 1e-9 {
		t.Fatalf("auto fallback = %+v", got)
	}
}

func TestRuntimeEstimatorOtherStatistics(t *testing.T) {
	h := NewHistory(0)
	for _, rt := range []float64{100, 300, 200} {
		h.Add(rec("q", "p", 4, 1, rt))
	}
	e := NewRuntimeEstimator(h)
	e.Statistic = StatLast
	got, _ := e.Estimate(rec("q", "p", 4, 1, 0))
	if got.Seconds != 200 {
		t.Fatalf("last = %v", got.Seconds)
	}
	e.Statistic = StatMedian
	got, _ = e.Estimate(rec("q", "p", 4, 1, 0))
	if got.Seconds != 200 {
		t.Fatalf("median = %v", got.Seconds)
	}
	e.Statistic = Statistic(99)
	if _, err := e.Estimate(rec("q", "p", 4, 1, 0)); err == nil {
		t.Fatal("unknown statistic accepted")
	}
}

func TestRuntimeEstimatorEmptyHistory(t *testing.T) {
	e := NewRuntimeEstimator(NewHistory(0))
	if _, err := e.Estimate(rec("q", "p", 1, 1, 0)); err == nil {
		t.Fatal("empty history estimate succeeded")
	}
}

func TestStatisticStrings(t *testing.T) {
	for s, want := range map[Statistic]string{
		StatAuto: "auto", StatMean: "mean", StatRegression: "regression",
		StatLast: "last", StatMedian: "median",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}

// queueFixture builds a pool with one busy machine, a running high-prio
// job, a queued high-prio job, and the queued probe job. The two jobs
// ahead of the probe carry the given estimates in their ads; 0 stamps
// none.
func queueFixture(t *testing.T, runningEst, queuedEst float64) (*simgrid.Grid, *condor.Pool, int) {
	t.Helper()
	g := simgrid.NewGrid(time.Second, 1)
	site := g.AddSite("s")
	p := condor.NewPool("pool", g, site)
	p.AddMachine(site.AddNode(g.Engine, "n1", 1, simgrid.IdleLoad()), nil)

	submit := func(cpu float64, prio int, est float64) int {
		ad := classad.New().
			Set(condor.AttrOwner, "u").
			Set(condor.AttrCpuSeconds, cpu).
			Set(condor.AttrPriority, prio)
		if est > 0 {
			ad.Set(condor.AttrEstimate, est)
		}
		id, err := p.Submit(ad)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	submit(100, 10, runningEst) // will run first
	submit(50, 5, queuedEst)    // queued ahead of probe
	probe := submit(10, 1, 10)
	g.Engine.RunFor(20 * time.Second) // first job now has ~19s wallclock
	return g, p, probe
}

func TestQueueTimeEstimator(t *testing.T) {
	_, p, probe := queueFixture(t, 100, 50)
	got, err := QueueTime(p, probe)
	if err != nil {
		t.Fatal(err)
	}
	// Running job: 100 est − ~19-20 elapsed ≈ 80-81 remaining.
	// Queued job: 50 est − 0 = 50. Total ≈ 130.
	if got.TasksAhead != 2 {
		t.Fatalf("TasksAhead = %d", got.TasksAhead)
	}
	if got.Seconds < 125 || got.Seconds > 135 {
		t.Fatalf("queue estimate = %v, want ≈130", got.Seconds)
	}
}

func TestQueueTimeEstimatorClampsOverruns(t *testing.T) {
	// The running job's estimate is far too small; its remaining must
	// clamp at zero, not go negative.
	g, p, probe := queueFixture(t, 5, 50)
	g.Engine.RunFor(10 * time.Second)
	got, err := QueueTime(p, probe)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seconds < 49 || got.Seconds > 51 {
		t.Fatalf("clamped estimate = %v, want ≈50", got.Seconds)
	}
}

func TestQueueTimeEstimatorSkipsJobsWithoutEstimate(t *testing.T) {
	// A job whose ad carries no estimate is skipped; the others still
	// count.
	for _, tc := range []struct {
		queuedEst float64
		want      QueueEstimate
	}{
		{0, QueueEstimate{}},
		{50, QueueEstimate{Seconds: 50, TasksAhead: 1}},
	} {
		_, p, probe := queueFixture(t, 0, tc.queuedEst)
		got, err := QueueTime(p, probe)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Fatalf("queued estimate %v: QueueTime = %+v, want %+v", tc.queuedEst, got, tc.want)
		}
	}
}

func TestQueueTimeEstimatorErrors(t *testing.T) {
	_, p, _ := queueFixture(t, 100, 50)
	if _, err := QueueTime(p, 12345); err == nil {
		t.Fatal("unknown job estimate succeeded")
	}
}

func TestTransferEstimator(t *testing.T) {
	g := simgrid.NewGrid(time.Second, 1)
	g.Network.Connect("a", "b", simgrid.Link{BandwidthMBps: 10})
	te := &TransferEstimator{Network: g.Network}
	got, err := te.Estimate("a", "b", 250)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Seconds-25) > 0.1 {
		t.Fatalf("transfer estimate = %+v", got)
	}
	if math.Abs(got.BandwidthMBps-10) > 0.1 {
		t.Fatalf("measured bandwidth = %v", got.BandwidthMBps)
	}
	// Background utilization raises the estimate.
	g.Network.Connect("a", "b", simgrid.Link{BandwidthMBps: 10, Utilization: 0.5})
	loaded, err := te.Estimate("a", "b", 250)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Seconds <= got.Seconds {
		t.Fatalf("utilized estimate %v <= idle %v", loaded.Seconds, got.Seconds)
	}
	if _, err := te.Estimate("a", "nowhere", 1); err == nil {
		t.Fatal("estimate over missing link succeeded")
	}
	if _, err := te.Estimate("a", "b", -1); err == nil {
		t.Fatal("negative size accepted")
	}
	if _, err := (&TransferEstimator{}).Estimate("a", "b", 1); err == nil {
		t.Fatal("no-network estimate succeeded")
	}
}

// TestTransferEstimatorLatencyAccuracy is the regression test for the
// latency bias: dividing file size by a latency-inclusive iperf figure
// amortized the latency proportionally to size, badly mispricing small
// files on long links. With the latency-excluded steady-state probe plus
// a one-shot latency term, the estimate for a 1 MB file on a 500 ms link
// matches the actual TransferDuration exactly (the old formula predicted
// ~0.16s for the actual 0.6s).
func TestTransferEstimatorLatencyAccuracy(t *testing.T) {
	g := simgrid.NewGrid(time.Second, 1)
	g.Network.Connect("a", "b", simgrid.Link{BandwidthMBps: 10, Latency: 500 * time.Millisecond})
	te := &TransferEstimator{Network: g.Network}
	est, err := te.Estimate("a", "b", 1)
	if err != nil {
		t.Fatal(err)
	}
	actual, err := g.Network.TransferDuration("a", "b", 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Seconds-actual.Seconds()) > 1e-9 {
		t.Fatalf("estimate %vs vs actual %vs for a latency-dominated file", est.Seconds, actual.Seconds())
	}
	if math.Abs(est.BandwidthMBps-10) > 1e-9 || math.Abs(est.LatencySeconds-0.5) > 1e-9 {
		t.Fatalf("estimate components = %+v, want steady 10 MB/s + 0.5s latency", est)
	}
	// The one-shot term must not scale with size: a 100x larger file pays
	// the same 0.5s, not 100x it.
	big, err := te.Estimate("a", "b", 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(big.Seconds-(0.5+10)) > 1e-9 {
		t.Fatalf("large-file estimate = %v, want 10.5s", big.Seconds)
	}
}

// TestTransferEstimatorSeesContention: in-flight transfers on the link
// shrink the probe's steady-state share, so estimates track what the
// network is actually doing.
func TestTransferEstimatorSeesContention(t *testing.T) {
	g := simgrid.NewGrid(time.Second, 1)
	g.Network.Connect("a", "b", simgrid.Link{BandwidthMBps: 10})
	te := &TransferEstimator{Network: g.Network}
	idle, err := te.Estimate("a", "b", 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Network.StartTransfer("a", "b", 500, nil); err != nil {
		t.Fatal(err)
	}
	busy, err := te.Estimate("a", "b", 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(idle.Seconds-10) > 1e-9 || math.Abs(busy.Seconds-20) > 1e-9 {
		t.Fatalf("estimates idle=%v busy=%v, want 10s and 20s", idle.Seconds, busy.Seconds)
	}
	if math.Abs(busy.BandwidthMBps-5) > 1e-9 {
		t.Fatalf("contended bandwidth = %v, want 5", busy.BandwidthMBps)
	}
}

// Property: the mean estimator's prediction lies within [min, max] of the
// similar runtimes.
func TestQuickMeanWithinBounds(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistory(0)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range raw {
			rt := float64(v%10000) + 1
			if rt < lo {
				lo = rt
			}
			if rt > hi {
				hi = rt
			}
			h.Add(rec("q", "p", 1, 1, rt))
		}
		e := NewRuntimeEstimator(h)
		e.Statistic = StatMean
		got, err := e.Estimate(rec("q", "p", 1, 1, 0))
		if err != nil {
			return false
		}
		return got.Seconds >= lo-1e-9 && got.Seconds <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: regression on a perfectly linear history recovers the line.
func TestQuickRegressionRecoversLine(t *testing.T) {
	f := func(slope8, intercept8 int8) bool {
		slope := float64(slope8%50) + 60 // keep runtimes positive
		intercept := float64(intercept8)
		h := NewHistory(0)
		for _, x := range []float64{1, 2, 3, 5, 8} {
			h.Add(rec("q", "p", 1, x, intercept+slope*x+1000))
		}
		e := NewRuntimeEstimator(h)
		e.Statistic = StatRegression
		got, err := e.Estimate(rec("q", "p", 1, 4, 0))
		if err != nil {
			return false
		}
		want := intercept + slope*4 + 1000
		return math.Abs(got.Seconds-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestEstimateAllocCeiling pins what one runtime estimate allocates: the
// two columns it computes on (runtimes, requested hours), sized once per
// template that matches anything, plus the regression it reports — not a
// copy of every similar 200-byte record, grown by doubling. The first
// template here matches 2 records (too few), the second all 200.
func TestEstimateAllocCeiling(t *testing.T) {
	h := NewHistory(0)
	for i := 0; i < 200; i++ {
		part := "px"
		if i < 2 {
			part = "p1"
		}
		if err := h.Add(rec("q1", part, 4, float64(1+i%5), float64(100+i%5*60+i%7))); err != nil {
			t.Fatal(err)
		}
	}
	e := NewRuntimeEstimator(h)
	target := rec("q1", "p1", 4, 3, 0)
	var got RuntimeEstimate
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		if got, err = e.Estimate(target); err != nil {
			t.Fatal(err)
		}
	})
	if got.Similar != 200 || got.Statistic != StatRegression {
		t.Fatalf("provenance = %+v, want all 200 records under the regression", got)
	}
	if allocs > 6 {
		t.Errorf("Estimate allocates %v times over 200 similar records, ceiling 6", allocs)
	}
}

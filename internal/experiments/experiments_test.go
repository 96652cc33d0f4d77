package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/loadgen"
	"repro/internal/scheduler"
	"repro/pkg/gae"
)

func TestTableCSV(t *testing.T) {
	tb := &Table{
		Title:   "t",
		Columns: []string{"x", "y"},
		Rows:    [][]float64{{1, 2.5}, {2, 3}},
		Notes:   []string{"note"},
	}
	csv := tb.CSV()
	want := "# note\nx,y\n1,2.5\n2,3\n"
	if csv != want {
		t.Fatalf("CSV = %q, want %q", csv, want)
	}
}

func TestTableChart(t *testing.T) {
	tb := &Table{
		Title:   "chart",
		Columns: []string{"x", "a", "b"},
		Rows:    [][]float64{{0, 0, 100}, {50, 50, 50}, {100, 100, 0}},
	}
	chart := tb.Chart(40, 10)
	if !strings.Contains(chart, "*") || !strings.Contains(chart, "o") {
		t.Fatalf("chart missing glyphs:\n%s", chart)
	}
	if !strings.Contains(chart, "*=a") || !strings.Contains(chart, "o=b") {
		t.Fatalf("chart missing legend:\n%s", chart)
	}
	if got := (&Table{Columns: []string{"x"}}).Chart(10, 5); got != "(no data)" {
		t.Fatalf("empty chart = %q", got)
	}
}

func TestFig5ReproducesPaperAccuracy(t *testing.T) {
	res, err := Fig5(DefaultFig5())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 20 {
		t.Fatalf("rows = %d, want 20", len(res.Table.Rows))
	}
	if len(res.Actual) != 20 || len(res.Estimated) != 20 {
		t.Fatalf("series lengths = %d/%d", len(res.Actual), len(res.Estimated))
	}
	for i, e := range res.Estimated {
		if e <= 0 {
			t.Fatalf("case %d: non-positive estimate %v", i+1, e)
		}
	}
	// Paper reports 13.53% mean error; the synthetic trace should land in
	// the same regime (history-based estimation on noisy accounting data).
	if res.MeanError < 3 || res.MeanError > 35 {
		t.Fatalf("mean error = %.2f%%, want within [3, 35] (paper: 13.53%%)", res.MeanError)
	}
	if !strings.Contains(res.Table.Notes[0], "13.53%") {
		t.Fatalf("notes = %v", res.Table.Notes)
	}
}

func TestFig5StatisticAblation(t *testing.T) {
	auto, err := Fig5(Fig5Config{HistoryJobs: 100, TestJobs: 20, Seed: 1995, Statistic: estimator.StatAuto})
	if err != nil {
		t.Fatal(err)
	}
	last, err := Fig5(Fig5Config{HistoryJobs: 100, TestJobs: 20, Seed: 1995, Statistic: estimator.StatLast})
	if err != nil {
		t.Fatal(err)
	}
	// Both must produce finite errors; the point of the ablation bench is
	// the comparison, not a fixed ordering, but wildly broken values
	// indicate a harness bug.
	if auto.MeanError <= 0 || last.MeanError <= 0 {
		t.Fatalf("errors: auto=%v last=%v", auto.MeanError, last.MeanError)
	}
}

func TestFig5Deterministic(t *testing.T) {
	a, err := Fig5(DefaultFig5())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig5(DefaultFig5())
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanError != b.MeanError {
		t.Fatalf("fig5 not deterministic: %v vs %v", a.MeanError, b.MeanError)
	}
}

func TestFig6SmallLadder(t *testing.T) {
	// A reduced ladder keeps the test fast while exercising the whole
	// HTTP/XML-RPC measurement path.
	res, err := Fig6(Fig6Config{
		ClientCounts:      []int{1, 2, 5},
		RequestsPerClient: 5,
		Jobs:              4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.AvgMillis) != 3 {
		t.Fatalf("levels = %d", len(res.AvgMillis))
	}
	for i, ms := range res.AvgMillis {
		if ms <= 0 || ms > 5000 {
			t.Fatalf("level %d: avg %v ms out of range", i, ms)
		}
	}
}

func TestFig7SteeringRescue(t *testing.T) {
	res, err := Fig7(Fig7Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MovedAt == 0 {
		t.Fatal("steering never moved the job")
	}
	if res.SteeredDone == 0 {
		t.Fatal("steered job never completed")
	}
	// Paper shape: moved job completes around 369 s (ours: move time +
	// 283 s restart); the loaded-site copy takes ≈ 283/0.3 ≈ 943 s.
	if res.SteeredDone > 450*time.Second {
		t.Fatalf("steered completion = %v, want < 450 s", res.SteeredDone)
	}
	if res.UnsteeredDone != 0 && res.UnsteeredDone < 2*res.SteeredDone {
		t.Fatalf("unsteered %v not ≫ steered %v", res.UnsteeredDone, res.SteeredDone)
	}
	// Progress series sanity: both series are monotone and the steered
	// one reaches 100%.
	rows := res.Table.Rows
	lastA, lastB := 0.0, 0.0
	for _, r := range rows {
		if r[1] < lastA-1e-9 || r[2] < lastB-1e-9 {
			t.Fatalf("progress decreased: %+v", r)
		}
		lastA, lastB = r[1], r[2]
	}
	if lastB < 100 {
		t.Fatalf("steered progress peaked at %v%%", lastB)
	}
	if lastA >= 100 && res.UnsteeredDone == 0 {
		t.Fatal("control finished but UnsteeredDone unset")
	}
}

func TestFig7ControlWithoutSteering(t *testing.T) {
	res, err := Fig7(Fig7Config{DisableSteering: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.MovedAt != 0 {
		t.Fatalf("control run moved the job at %v", res.MovedAt)
	}
	// At a 0.3 progress rate the 283 s job needs ≈ 943 s.
	if res.SteeredDone != 0 && res.SteeredDone < 900*time.Second {
		t.Fatalf("unsteered job finished in %v; load model broken", res.SteeredDone)
	}
}

func TestFig7CheckpointingIsFaster(t *testing.T) {
	restart, err := Fig7(Fig7Config{})
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := Fig7(Fig7Config{Checkpointable: true})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.SteeredDone >= restart.SteeredDone {
		t.Fatalf("checkpointed %v not faster than restart %v",
			resumed.SteeredDone, restart.SteeredDone)
	}
}

// TestFig6StopReturnsPromptly pins the cause of the ~5 s Figure 6 samples:
// it was never a slow request but the host's graceful Stop waiting out
// net/http's five-second grace for connections that 50 clients sharing
// http.DefaultTransport had dialled in a race and never used. With a
// connection pool per client no such connection is dialled. The race hit
// about one deployment in five, so several are cycled.
func TestFig6StopReturnsPromptly(t *testing.T) {
	for cycle := 0; cycle < 10; cycle++ {
		g := core.New(core.Config{
			Seed:  6,
			Sites: []core.SiteSpec{{Name: "siteA", Nodes: 4, CostPerCPUSecond: 0.01}},
			Users: []core.UserSpec{{Name: "client", Password: "pw", Credits: 1e6}},
		})
		url, err := g.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		tasks := make([]scheduler.TaskPlan, 4)
		for i := range tasks {
			tasks[i] = scheduler.TaskPlan{ID: fmt.Sprintf("t%d", i), CPUSeconds: 50, Queue: "short", Partition: "gae", Nodes: 1, JobType: "batch"}
		}
		if _, err := g.Scheduler.Submit(&scheduler.JobPlan{Name: "load", Owner: "client", Tasks: tasks}); err != nil {
			t.Fatal(err)
		}
		g.Run(60 * time.Second)
		res, err := loadgen.Run(context.Background(), loadgen.JobMon("siteA", len(tasks)), loadgen.Config{Clients: 50, Ops: 10},
			func(ctx context.Context, _ int) (*gae.Client, error) {
				return gae.Dial(ctx, url, gae.WithCredentials("client", "pw"))
			})
		if err != nil {
			t.Fatal(err)
		}
		if res.Errors > 0 {
			t.Fatalf("cycle %d: %d of %d calls failed", cycle, res.Errors, res.Ops)
		}
		start := time.Now()
		if err := g.Stop(); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("cycle %d: Stop took %v after 50 clients x 10 calls, want < 1s", cycle, d)
		}
	}
}

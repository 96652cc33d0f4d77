package loadgen

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/simgrid"
	"repro/internal/xmlrpc"
	"repro/pkg/gae"
)

func testDeployment() *core.GAE {
	return core.New(core.Config{
		Seed: 3,
		Sites: []core.SiteSpec{
			{Name: "siteA", Nodes: 2, Load: simgrid.IdleLoad(), CostPerCPUSecond: 0.05},
			{Name: "siteB", Nodes: 2, Load: simgrid.ConstantLoad(0.2), CostPerCPUSecond: 0.02},
		},
		Links: []core.LinkSpec{{A: "siteA", B: "siteB", MBps: 10, LatencyMS: 50}},
		Users: []core.UserSpec{{Name: "alice", Password: "pw", Credits: 1e9, Admin: true}},
	})
}

func TestRunMixedWorkload(t *testing.T) {
	g := testDeployment()
	res, err := Run(context.Background(), Analysis, Config{Clients: 3, Ops: 40, Seed: 1},
		func(context.Context, int) (*gae.Client, error) { return g.Client("alice"), nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors > 0 {
		t.Fatalf("%d of %d ops failed (%+v)", res.Errors, res.Ops, res.ByOp)
	}
	if res.Ops != 3*40 {
		t.Fatalf("Ops = %d, want %d", res.Ops, 3*40)
	}
	if res.Clients != 3 {
		t.Fatalf("Clients = %d, want 3", res.Clients)
	}
	if res.ByOp["submit"] == 0 {
		t.Fatal("workload issued no submissions")
	}
	if res.RPS <= 0 || res.ElapsedSeconds <= 0 {
		t.Fatalf("throughput not measured: %+v", res)
	}
	if res.P50Millis > res.P95Millis || res.P95Millis > res.P99Millis {
		t.Fatalf("percentiles not monotone: p50=%v p95=%v p99=%v",
			res.P50Millis, res.P95Millis, res.P99Millis)
	}
	// The workload's plans really landed in the deployment.
	if _, ok := g.Scheduler.Plan("load-w0-0"); !ok {
		t.Fatal("worker 0's first plan not found in the deployment")
	}
}

func TestRunDialFailure(t *testing.T) {
	boom := errors.New("boom")
	_, err := Run(context.Background(), Analysis, Config{Clients: 2, Ops: 4},
		func(_ context.Context, w int) (*gae.Client, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped dial error", err)
	}
}

// A run that aborts on one worker's dial error still closes the clients
// that did dial: their sessions are logged out, not left to expire.
func TestRunDialFailureClosesDialledClients(t *testing.T) {
	g := testDeployment()
	url, err := g.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop() //nolint:errcheck
	boom := errors.New("boom")
	var dialled *gae.Client
	_, err = Run(context.Background(), Analysis, Config{Clients: 2, Ops: 2},
		func(ctx context.Context, w int) (*gae.Client, error) {
			if w == 1 {
				return nil, boom
			}
			c, err := gae.Dial(ctx, url, gae.WithCredentials("alice", "pw"))
			dialled = c
			return c, err
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped dial error", err)
	}
	if dialled == nil {
		t.Fatal("no worker dialled")
	}
	if _, err := dialled.Balance(context.Background()); !xmlrpc.IsFault(err, xmlrpc.FaultAuth) {
		t.Fatalf("the worker that dialled is still logged in after the aborted run: Balance = %v, want an authentication fault", err)
	}
}

func TestPercentileMillis(t *testing.T) {
	if got := percentileMillis(nil, 0.5); got != 0 {
		t.Fatalf("empty percentile = %v, want 0", got)
	}
	// Nearest rank: the ⌈q·n⌉-th of 1…160 ms, not the rounded q·n-th.
	lat := make([]time.Duration, 160)
	for i := range lat {
		lat[i] = time.Duration(i+1) * time.Millisecond
	}
	for _, tc := range []struct{ q, want float64 }{{0.50, 80}, {0.95, 152}, {0.99, 159}, {1, 160}} {
		if got := percentileMillis(lat, tc.q); got != tc.want {
			t.Errorf("p%v of 1…160 ms = %v ms, want %v", tc.q*100, got, tc.want)
		}
	}
}

// The analysis mix's weights draw at exactly the cumulative fractions
// the hand-written switch it replaced compared against, so a seed gives
// the same operations as before.
func TestAnalysisDrawBounds(t *testing.T) {
	bounds := []float64{0.10, 0.30, 0.45, 0.55, 0.70, 0.85, 0.95}
	for i, b := range bounds {
		below, at := Analysis.draw(math.Nextafter(b, 0)), Analysis.draw(b)
		if below != &Analysis.ops[i] || at != &Analysis.ops[i+1] {
			t.Errorf("bound %v: draws %s below and %s at it, want %s and %s",
				b, below.name, at.name, Analysis.ops[i].name, Analysis.ops[i+1].name)
		}
	}
	if last := Analysis.draw(math.Nextafter(1, 0)); last != &Analysis.ops[len(Analysis.ops)-1] {
		t.Errorf("p just below 1 draws %s", last.name)
	}
}

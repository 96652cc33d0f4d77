package gae_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/loadgen"
	"repro/internal/telemetry"
	"repro/pkg/gae"
)

// requiredFamilies must all be non-zero after a served burst, a Run and a
// checkpoint: they cover the RPC path, the journal, checkpointing, and the
// pool and negotiator layers.
var requiredFamilies = []string{
	"rpc_requests_total",
	"rpc_latency_seconds",
	"journal_appends_total",
	"journal_fsync_seconds",
	"journal_flushes_total",
	"pool_wakes_total",
	"negotiation_passes_total",
	"checkpoints_total",
	"idem_hits_total",
}

// servedStages are the stages of every served call's span, in order,
// whatever the call did.
var servedStages = []string{"decode", "session", "lock", "handler", "journal", "commit", "encode"}

// stageSumBound is how far, in milliseconds, a span's stages may add up
// from its total: the stages meet end to end, so only the float rounding
// of each stage's milliseconds is left, far below a nanosecond.
const stageSumBound = 1e-6

// TestServedBurstIsObservable drives loadgen's analysis mix, 2 clients of
// 16 ops, over a transport that delivers every request twice, at a
// durable deployment wired as gae-server wires it (the harness deployment,
// its store opened and attached before the first call), then advances
// the engine and checkpoints. The second delivery of each mutation must
// be answered from the idempotency window, so a mutating call that goes
// out without a request ID fails the burst. After it:
//   - every required family is non-zero in /metrics, JSON and text;
//   - /healthz answers 200;
//   - idem_hits_total is the burst's mutations, every delivery is one
//     request, and /debug/rpcs holds one span per delivery;
//   - the span of every kind of call — a read, an applied write, a
//     window hit, a refused request ID and a handler error — has every
//     served stage in order, none negative, adding up to its total.
func TestServedBurstIsObservable(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cfg, err := core.LoadDeployment("../../testdata/deployments/harness.json")
	if err != nil {
		t.Fatal(err)
	}
	g := core.New(cfg)
	store, err := durable.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	if err := g.AttachStore(store); err != nil {
		t.Fatal(err)
	}
	g.OnDurabilityLoss(func(err error) { t.Errorf("durability lost: %v", err) })
	hs := httptest.NewServer(g.Handler())
	t.Cleanup(hs.Close)
	g.Clarens.SetBaseURL(hs.URL)
	user := cfg.Users[0]
	dup := &deliverTwice{}
	dial := func(ctx context.Context, _ int) (*gae.Client, error) {
		return gae.Dial(ctx, hs.URL, gae.WithCredentials(user.Name, user.Password), gae.WithTransport(dup))
	}

	res, err := loadgen.Run(ctx, loadgen.Analysis, loadgen.Config{Clients: 2, Ops: 16}, dial)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors > 0 {
		t.Fatalf("%d of %d ops failed: %v", res.Errors, res.Ops, res.ErrorsByOp)
	}
	// The burst's row calls, its ops and the run's one steering.jobs, and
	// the mutations among them.
	calls, mutations := res.Ops+1, int(dup.stamped.Load())
	g.Run(time.Minute)
	if err := g.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	snap, err := telemetry.Scrape(ctx, hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	text := get(t, hs.URL+"/metrics", http.StatusOK)
	for _, fam := range requiredFamilies {
		if snap.Total(fam) == 0 {
			t.Errorf("family %s is missing or all zero after the burst", fam)
		}
		if !strings.Contains(text, "\n"+fam) {
			t.Errorf("/metrics text has no line of %s", fam)
		}
	}
	get(t, hs.URL+"/healthz", http.StatusOK)
	stats := loadgen.ServerStatsOf(snap)
	if mutations == 0 || stats.IdemHits != float64(mutations) {
		t.Errorf("idem_hits_total = %v, want the burst's %d mutations", stats.IdemHits, mutations)
	}
	if stats.RPCRequests != float64(2*calls) || stats.RPCErrors != 0 {
		t.Errorf("rpc_requests_total = %v, rpc_errors_total = %v; want both deliveries of %d row calls, none failed",
			stats.RPCRequests, stats.RPCErrors, calls)
	}

	// The kinds the burst has no call of: a request ID reused for another
	// method, and a handler error.
	c, err := dial(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(ctx)
	pinned := gae.WithRequestID(ctx, "observe-rid")
	if err := c.SetState(pinned, "observe", "v"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DeleteState(pinned, "observe"); err == nil {
		t.Fatal("a request ID reused for another method was accepted")
	}
	if err := c.Kill(ctx, "ghost", "t0"); err == nil {
		t.Fatal("killing a task of no plan succeeded")
	}

	var rpcs struct {
		Total uint64           `json:"total"`
		Spans []telemetry.Span `json:"spans"`
	}
	if err := json.Unmarshal([]byte(get(t, hs.URL+"/debug/rpcs?limit=1000", http.StatusOK)), &rpcs); err != nil {
		t.Fatalf("parsing /debug/rpcs: %v", err)
	}
	if spans := 2 * (calls + 3); rpcs.Total != uint64(spans) || len(rpcs.Spans) != spans {
		t.Fatalf("/debug/rpcs: %d spans of %d, want one per delivery, %d", len(rpcs.Spans), rpcs.Total, spans)
	}
	kinds := map[string]int{}
	for _, sp := range rpcs.Spans {
		kind := kindOf(sp)
		kinds[kind]++
		var names []string
		var sum float64
		for _, st := range sp.Stages {
			names = append(names, st.Name)
			sum += st.Millis
			if st.Millis < 0 {
				t.Errorf("%s %s: stage %s is %v ms", kind, sp.Method, st.Name, st.Millis)
			}
		}
		if fmt.Sprint(names) != fmt.Sprint(servedStages) {
			t.Errorf("%s %s: stages %v, want %v", kind, sp.Method, names, servedStages)
		}
		if math.Abs(sum-sp.TotalMillis) > stageSumBound || sp.TotalMillis <= 0 {
			t.Errorf("%s %s: stages add up to %v ms, total %v ms", kind, sp.Method, sum, sp.TotalMillis)
		}
	}
	want := map[string]int{
		"read":        2 * (calls - mutations),
		"applied":     mutations + 1,
		"window hit":  mutations + 1,
		"refused id":  2,
		"handler err": 2,
	}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Errorf("spans by kind %v, want %v", kinds, want)
	}
}

// kindOf names what the call a span traces did.
func kindOf(sp telemetry.Span) string {
	switch {
	case strings.Contains(sp.Err, "reused"):
		return "refused id"
	case sp.Err != "":
		return "handler err"
	case sp.Dedup:
		return "window hit"
	case sp.Seq > 0:
		return "applied"
	}
	return "read"
}

// get fetches url and fails the test unless it answers with code.
func get(t *testing.T, url string, code int) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != code {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, code)
	}
	return string(body)
}

package core

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/clarens"
	"repro/internal/durable"
	"repro/internal/telemetry"
)

// --- idempotency window: eviction and hit counters ---

func idemAt(sec int) time.Time {
	return time.Date(2005, 6, 1, 0, 0, sec, 0, time.UTC)
}

func TestIdemWindowCapacityEvictionCounted(t *testing.T) {
	reg := telemetry.NewRegistry()
	w := newIdemWindow()
	w.limit = 2
	w.setTelemetry(reg)
	for i := 0; i < 4; i++ {
		w.record("alice", fmt.Sprintf("r%d", i), "state.set", nil, uint64(i+1), idemAt(i))
	}
	if _, ok := w.lookup("alice", "r3"); !ok {
		t.Fatal("newest entry evicted")
	}
	snap := reg.Snapshot()
	if got, _ := snap.Value("idem_evictions_total", "capacity"); got != 2 {
		t.Fatalf("capacity evictions = %v, want 2", got)
	}
	if got := snap.Total("idem_hits_total"); got != 1 {
		t.Fatalf("idem hits = %v, want the one lookup", got)
	}
}

// --- HTTP observability endpoints on the Clarens host ---

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestMetricsEndpoint(t *testing.T) {
	g, c := startGAE(t, twoSiteConfig())
	ctx := context.Background()
	// A write and a read: each call is one request of its method.
	if _, err := c.Call(ctx, "state.set", "k1", "v1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call(ctx, "state.get", "k1"); err != nil {
		t.Fatal(err)
	}
	base := g.Clarens.BaseURL()

	code, text := httpGet(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	for _, want := range []string{
		"# TYPE rpc_requests_total counter",
		`rpc_requests_total{method="state.set"} 1`,
		`rpc_requests_total{method="state.get"} 1`,
		"# TYPE rpc_latency_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics text missing %q", want)
		}
	}

	code, body := httpGet(t, base+"/metrics?format=json")
	if code != http.StatusOK {
		t.Fatalf("/metrics?format=json: status %d", code)
	}
	snap, err := telemetry.ParseJSON(strings.NewReader(body))
	if err != nil {
		t.Fatalf("parsing /metrics JSON: %v", err)
	}
	if got := snap.Total("rpc_requests_total"); got != 2 {
		t.Fatalf("rpc_requests_total = %v, want 2", got)
	}
	for _, method := range []string{"state.set", "state.get"} {
		if _, ok := snap.Find("rpc_latency_seconds", method); !ok {
			t.Fatalf("rpc_latency_seconds{%s} missing from snapshot", method)
		}
	}
}

func TestHealthzDrainAware(t *testing.T) {
	g := New(twoSiteConfig())
	hs := httptest.NewServer(g.Handler())
	defer hs.Close()

	code, body := httpGet(t, hs.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz: status %d, body %q", code, body)
	}
	var st struct {
		Status   string `json:"status"`
		Draining bool   `json:"draining"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("parsing /healthz: %v", err)
	}
	if st.Status != "ok" || st.Draining {
		t.Fatalf("/healthz = %+v, want ok/not-draining", st)
	}

	// While draining, RPC traffic is refused but /healthz must still
	// answer — it deliberately bypasses the drain check — and report
	// the drain with a 503 so balancers stop routing here.
	g.Clarens.SetDraining(true)
	code, body = httpGet(t, hs.URL+"/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz while draining: status %d, body %q", code, body)
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("parsing draining /healthz: %v", err)
	}
	if st.Status != "draining" || !st.Draining {
		t.Fatalf("draining /healthz = %+v", st)
	}
}

func TestDebugRPCsEndpoint(t *testing.T) {
	g, c := startGAE(t, twoSiteConfig())
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := c.Call(ctx, "state.set", fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Call(ctx, "state.get", "k0"); err != nil {
		t.Fatal(err)
	}
	code, body := httpGet(t, g.Clarens.BaseURL()+"/debug/rpcs?limit=2")
	if code != http.StatusOK {
		t.Fatalf("/debug/rpcs: status %d", code)
	}
	var out struct {
		Total uint64           `json:"total"`
		Spans []telemetry.Span `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("parsing /debug/rpcs: %v", err)
	}
	if out.Total != 4 {
		t.Fatalf("span total = %d, want 4", out.Total)
	}
	if len(out.Spans) != 2 {
		t.Fatalf("spans returned = %d, want limit 2", len(out.Spans))
	}
	for i, method := range []string{"state.get", "state.set"} {
		sp := out.Spans[i]
		if sp.Method != method || sp.User != "alice" {
			t.Fatalf("span %d = %+v, want %s by alice", i, sp, method)
		}
		if got := stageNames(sp); got != servedStages {
			t.Fatalf("span %d stages = %s, want %s", i, got, servedStages)
		}
	}
}

// servedStages and localStages are the stages of every span, in order:
// a served call's, whatever it did, and a local client's.
const (
	servedStages = "[decode session lock handler journal commit encode]"
	localStages  = "[lock handler journal commit]"
)

func stageNames(sp telemetry.Span) string {
	var names []string
	for _, st := range sp.Stages {
		names = append(names, st.Name)
	}
	return fmt.Sprint(names)
}

// TestEveryJournaledExitLeavesOneSpan: a read, a success, a dedup, a
// request ID reused for another method and a handler error each record
// one span and one request, built the same way: every stage, in order.
func TestEveryJournaledExitLeavesOneSpan(t *testing.T) {
	g := New(twoSiteConfig())
	store, err := durable.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := g.AttachStore(store); err != nil {
		t.Fatal(err)
	}
	alice := g.Client("alice")
	ctx := context.Background()
	pinned := clarens.WithRequestID(ctx, "rid-1")
	if _, err := alice.Sites(ctx); err != nil {
		t.Fatal(err)
	}
	if err := alice.SetState(pinned, "k", "v"); err != nil {
		t.Fatal(err)
	}
	if err := alice.SetState(pinned, "k", "v"); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.DeleteState(pinned, "k"); err == nil {
		t.Fatal("a request ID reused for another method was accepted")
	}
	if err := alice.Kill(ctx, "ghost", "t"); err == nil {
		t.Fatal("killing a task of no plan succeeded")
	}

	var got []string
	for _, sp := range g.Trace().Recent(0) {
		got = append([]string{fmt.Sprintf("%s dedup=%v failed=%v stages=%s", sp.Method, sp.Dedup, sp.Err != "", stageNames(sp))}, got...)
	}
	want := []string{
		"scheduler.sites dedup=false failed=false stages=" + localStages,
		"state.set dedup=false failed=false stages=" + localStages,
		"state.set dedup=true failed=false stages=" + localStages,
		"state.delete dedup=false failed=true stages=" + localStages,
		"steering.kill dedup=false failed=true stages=" + localStages,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("spans:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	snap := g.Telemetry.Snapshot()
	if n, e := snap.Total("rpc_requests_total"), snap.Total("rpc_errors_total"); n != 5 || e != 2 {
		t.Fatalf("rpc_requests_total = %v, rpc_errors_total = %v; want 5 and 2", n, e)
	}
}

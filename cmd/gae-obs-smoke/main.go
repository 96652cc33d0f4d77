// Command gae-obs-smoke is the observability smoke check: it boots a
// real gae-server on a scratch durable directory (the chaos harness's
// launcher), drives a short burst of loadgen's analysis mix at it over
// a wire that delivers every request twice, then scrapes /metrics and
// fails unless every required metric family is present and non-zero. The second delivery of each mutation
// must be answered from the server's idempotency window, so a mutating
// call that goes out without a request ID fails the burst.
// The launcher waits for /healthz to answer 200; the check also wants
// /debug/rpcs to carry spans for the burst, so a regression anywhere in
// the telemetry plumbing — registry, instrumentation points, or the HTTP
// surface — turns the build red. Any exit of the server, or a run longer
// than two minutes, fails it too.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/loadgen"
	"repro/internal/telemetry"
	"repro/pkg/gae"
)

// requiredFamilies must all be non-zero after the burst: they cover the
// RPC path, the journal, checkpointing, and the pool/negotiator layers.
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

const runTimeout = 2 * time.Minute

func main() {
	var (
		clients = flag.Int("clients", 4, "concurrent loadgen clients")
		ops     = flag.Int("ops", 32, "operations per client")
		server  = flag.String("server", "", "prebuilt gae-server binary (empty: go build ./cmd/gae-server)")
	)
	flag.Parse()
	log.SetPrefix("gae-obs-smoke: ")
	log.SetFlags(0)

	if err := run(*clients, *ops, *server); err != nil {
		log.Fatalf("FAIL: %v", err)
	}
	log.Print("PASS")
}

func run(clients, ops int, server string) error {
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	ctx, fail := context.WithCancelCause(ctx)
	// A prebuilt -server binary (e.g. a race-instrumented one from the
	// race-smoke leg) skips the build.
	srv, err := chaos.StartServer(ctx, server, fail)
	if err != nil {
		return err
	}
	defer srv.Close()
	url := srv.URL()

	// Every request is delivered twice, back to back; the client sees the
	// second reply. That is what moves idem_hits_total.
	dup := chaos.DuplicatingTransport()
	res, err := loadgen.Run(ctx, loadgen.Analysis, loadgen.Config{
		Clients: clients, Ops: ops, Seed: 7,
	}, func(ctx context.Context, _ int) (*gae.Client, error) {
		// The launched deployment's administrator.
		return gae.Dial(ctx, url, gae.WithCredentials(chaos.User, chaos.Pass), gae.WithTransport(dup))
	})
	if err != nil {
		return fmt.Errorf("loadgen burst: %w", err)
	}
	if cause := context.Cause(ctx); cause != nil {
		return fmt.Errorf("loadgen burst: %w", cause)
	}
	if res.Errors > 0 {
		return fmt.Errorf("loadgen burst: %d of %d ops failed", res.Errors, res.Ops)
	}
	log.Printf("burst done: %d ops (each delivered twice), p99 %.2fms", res.Ops, res.P99Millis)

	// Some families fill on the server's own cadence (checkpoints fire on
	// a timer, negotiation on scheduler wakes), so poll until every
	// required family is non-zero or the deadline passes.
	snap, missing, err := pollFamilies(ctx, url)
	if err != nil {
		return err
	}
	if len(missing) > 0 {
		return fmt.Errorf("metric families missing or all-zero after burst: %v", missing)
	}
	stats := loadgen.ServerStatsOf(snap)
	out, _ := json.MarshalIndent(stats, "", "  ")
	log.Printf("server stats: %s", out)

	// The Prometheus rendering must expose the same families as text.
	text, err := getBody(ctx, url+"/metrics")
	if err != nil {
		return err
	}
	for _, fam := range requiredFamilies {
		if !containsLine(text, fam) {
			return fmt.Errorf("/metrics text rendering missing family %q", fam)
		}
	}

	// The burst must have left trace spans behind.
	body, err := getBody(ctx, url+"/debug/rpcs?limit=10")
	if err != nil {
		return err
	}
	var spans struct {
		Total uint64           `json:"total"`
		Spans []telemetry.Span `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &spans); err != nil {
		return fmt.Errorf("parsing /debug/rpcs: %w", err)
	}
	if spans.Total == 0 || len(spans.Spans) == 0 {
		return fmt.Errorf("/debug/rpcs has no spans after %d ops", res.Ops)
	}
	log.Printf("traced %d rpcs; all %d required families live", spans.Total, len(requiredFamilies))
	return nil
}

// pollFamilies scrapes /metrics until every required family is non-zero,
// returning the final snapshot and whatever is still missing at the
// deadline.
func pollFamilies(ctx context.Context, url string) (telemetry.Snapshot, []string, error) {
	var snap telemetry.Snapshot
	var missing []string
	for {
		var err error
		snap, err = telemetry.Scrape(ctx, url)
		if err != nil {
			return snap, nil, fmt.Errorf("scraping %s/metrics: %w", url, err)
		}
		missing = missing[:0]
		for _, fam := range requiredFamilies {
			if snap.Total(fam) == 0 {
				missing = append(missing, fam)
			}
		}
		if len(missing) == 0 {
			return snap, nil, nil
		}
		select {
		case <-ctx.Done():
			return snap, missing, nil
		case <-time.After(100 * time.Millisecond):
		}
	}
}

func getBody(ctx context.Context, url string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(body), nil
}

// containsLine reports whether any line in text starts with prefix —
// family names prefix their # TYPE and sample lines.
func containsLine(text, prefix string) bool {
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, prefix) {
			return true
		}
	}
	return false
}

// Command gae-obs-smoke is the observability smoke check: it boots a
// real gae-server on a scratch durable directory, drives a short burst
// of loadgen's analysis mix at it over a wire that delivers every request
// twice, then scrapes /metrics and fails unless every required metric
// family is present and non-zero. The second delivery of each mutation
// must be answered from the server's idempotency window, so a mutating
// call that goes out without a request ID fails the burst.
// It also checks /healthz answers 200 and /debug/rpcs carries spans
// for the burst, so a regression anywhere in the telemetry plumbing —
// registry, instrumentation points, or the HTTP surface — turns the
// build red.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
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

func main() {
	var (
		clients = flag.Int("clients", 4, "concurrent loadgen clients")
		ops     = flag.Int("ops", 32, "operations per client")
		server  = flag.String("server", "", "prebuilt gae-server binary (empty: go build ./cmd/gae-server)")
		timeout = flag.Duration("timeout", 2*time.Minute, "overall deadline")
	)
	flag.Parse()
	log.SetPrefix("gae-obs-smoke: ")
	log.SetFlags(0)

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	if err := run(ctx, *clients, *ops, *server); err != nil {
		log.Fatalf("FAIL: %v", err)
	}
	log.Print("PASS")
}

func run(ctx context.Context, clients, ops int, server string) error {
	scratch, err := os.MkdirTemp("", "gae-obs-smoke-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	data := filepath.Join(scratch, "data")
	if err := os.Mkdir(data, 0o755); err != nil {
		return err
	}

	// A real binary, as in the chaos harness: `go run` would leave the
	// server a process group away. A prebuilt -server binary (e.g. a
	// race-instrumented one from the race-smoke leg) skips the build.
	bin := server
	if bin == "" {
		bin = filepath.Join(scratch, "gae-server")
		build := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/gae-server")
		build.Stderr = os.Stderr
		if err := build.Run(); err != nil {
			return fmt.Errorf("building gae-server: %w", err)
		}
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := l.Addr().String()
	l.Close()
	srv := exec.Command(bin,
		"-addr", addr,
		"-data", data,
		"-users", "alice:pw:1000000",
		"-checkpoint", "1s",
		"-drain-timeout", "5s",
	)
	srv.Stderr = os.Stderr
	if err := srv.Start(); err != nil {
		return fmt.Errorf("starting gae-server: %w", err)
	}
	defer func() {
		srv.Process.Kill()
		srv.Wait()
	}()
	url := "http://" + addr

	// Readiness via the new health endpoint.
	if err := waitHealthy(ctx, url); err != nil {
		return err
	}

	// Every request is delivered twice, back to back; the client sees the
	// second reply. That is what moves idem_hits_total.
	dup := chaos.NewTransport(nil, chaos.Faults{DupProb: 1})
	res, err := loadgen.Run(ctx, loadgen.Analysis, loadgen.Config{
		Clients: clients, Ops: ops, Seed: 7, Prefix: "obs",
	}, func(ctx context.Context, _ int) (*gae.Client, error) {
		return gae.Dial(ctx, url, gae.WithCredentials("alice", "pw"), gae.WithTransport(dup))
	})
	if err != nil {
		return fmt.Errorf("loadgen burst: %w", err)
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

func waitHealthy(ctx context.Context, url string) error {
	for {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("server at %s never became healthy: %w", url, ctx.Err())
		case <-time.After(25 * time.Millisecond):
		}
	}
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

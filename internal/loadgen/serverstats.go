package loadgen

import (
	"context"

	"repro/internal/telemetry"
)

// ServerStats is the server-side view of a run, derived from the
// deployment's /metrics snapshot. The client-side percentiles in Result
// include the wire; these isolate where the server spent that time.
type ServerStats struct {
	// JournalFsyncP99Millis is the p99 of one journal flush's
	// write+fsync, in milliseconds (zero without a durable store).
	JournalFsyncP99Millis float64 `json:"journal_fsync_p99_ms"`
	// RPCP99Millis is the server-observed p99 latency per RPC method, in
	// milliseconds.
	RPCP99Millis map[string]float64 `json:"rpc_p99_ms,omitempty"`
	// RPCRequests and RPCErrors total the server's calls of its method
	// rows, reads and writes alike.
	RPCRequests float64 `json:"rpc_requests"`
	RPCErrors   float64 `json:"rpc_errors"`
	// IdemHits counts duplicate requests answered from the idempotency
	// window; IdemEvictions counts entries dropped from it (all causes).
	IdemHits      float64 `json:"idem_hits"`
	IdemEvictions float64 `json:"idem_evictions"`
}

// ServerStatsOf reduces a metrics snapshot to the report fields.
func ServerStatsOf(snap telemetry.Snapshot) *ServerStats {
	st := &ServerStats{
		RPCRequests:   snap.Total("rpc_requests_total"),
		RPCErrors:     snap.Total("rpc_errors_total"),
		IdemHits:      snap.Total("idem_hits_total"),
		IdemEvictions: snap.Total("idem_evictions_total"),
	}
	if m, ok := snap.Find("journal_fsync_seconds", ""); ok {
		st.JournalFsyncP99Millis = m.P99 * 1000
	}
	for _, m := range snap.Family("rpc_latency_seconds") {
		if st.RPCP99Millis == nil {
			st.RPCP99Millis = make(map[string]float64)
		}
		st.RPCP99Millis[m.Label] = m.P99 * 1000
	}
	return st
}

// ScrapeServerStats fetches baseURL's /metrics and reduces it. Use this
// for wire-mode runs; embedded runs read the registry directly via
// ServerStatsOf.
func ScrapeServerStats(ctx context.Context, baseURL string) (*ServerStats, error) {
	snap, err := telemetry.Scrape(ctx, baseURL)
	if err != nil {
		return nil, err
	}
	return ServerStatsOf(snap), nil
}

package core

import (
	"encoding/json"
	"net/http"
	"time"

	"repro/internal/telemetry"
)

// methodObs is the pre-resolved per-method handle set for the journaled
// RPC path: counts, errors, and a latency histogram, all labeled by the
// fully-qualified method name. Resolving registry handles once per
// method (not per call) keeps the serving hot path at a map read plus
// atomic ops.
type methodObs struct {
	requests *telemetry.Counter
	errors   *telemetry.Counter
	latency  *telemetry.Histogram
}

// rpcObserver caches methodObs by method name, making each on first use
// so /metrics carries a series only for a method that was called. It has
// no lock of its own: journal.End resolves a method's handles before it
// releases the deployment's lock, which guards the map; observing into
// the handles, which are atomic, happens after.
type rpcObserver struct {
	reg  *telemetry.Registry
	byFQ map[string]*methodObs
}

func newRPCObserver(reg *telemetry.Registry) *rpcObserver {
	return &rpcObserver{reg: reg, byFQ: make(map[string]*methodObs)}
}

func (o *rpcObserver) forMethod(fq string) *methodObs {
	mo := o.byFQ[fq]
	if mo == nil {
		mo = &methodObs{
			requests: o.reg.LabeledCounter("rpc_requests_total", "method", fq),
			errors:   o.reg.LabeledCounter("rpc_errors_total", "method", fq),
			latency:  o.reg.LabeledHistogram("rpc_latency_seconds", "method", fq, nil),
		}
		o.byFQ[fq] = mo
	}
	return mo
}

// healthz answers the drain-aware health probe: 200 with status "ok"
// while serving, 503 with status "draining" once the host is refusing
// RPCs ahead of a stop. It reports through the Clarens host's draining
// flag so the endpoint flips the instant drain begins — while the
// process is still up checkpointing — which is what a load balancer
// needs to stop routing before the listener dies.
func (g *GAE) healthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		http.Error(w, "health endpoint is read-only", http.StatusMethodNotAllowed)
		return
	}
	draining := g.Clarens.Draining()
	status := "ok"
	code := http.StatusOK
	if draining {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]any{ //nolint:errcheck // best-effort write
		"status":   status,
		"draining": draining,
		"host":     g.Clarens.Name,
		"sim_time": g.Now().UTC().Format(time.RFC3339Nano),
	})
}

package estimator

import (
	"fmt"

	"repro/internal/simgrid"
	"repro/pkg/gae"
)

// TransferEstimator implements the paper's §6.3 file-transfer-time
// estimator: "we first determine the bandwidth between the client and the
// Clarens server using iperf, and then using this bandwidth and the file
// size, we calculate the transfer time."
//
// The probe runs at call time against the simulated fabric, so both
// background utilization and concurrent flows on the link are reflected
// in the estimate. The link's one-way latency is charged exactly once on
// top of the latency-excluded steady-state bandwidth: dividing size by a
// latency-inclusive iperf figure would scale the latency penalty with
// file size, mispricing small files on long links in both directions.
type TransferEstimator struct {
	Network *simgrid.Network
}

// TransferEstimate is a prediction with the measurement that produced it:
// the latency-excluded steady-state share the probe measured (what a new
// flow on the link would sustain right now, current contention included)
// and the one-shot latency term included in Seconds.
type TransferEstimate = gae.TransferEstimate

// Estimate predicts how long sizeMB takes from src to dst as
// latency + size/bandwidth, with the bandwidth measured at call time (an
// iperf run), so background utilization and in-flight transfers on the
// link are reflected in the estimate.
func (t *TransferEstimator) Estimate(src, dst string, sizeMB float64) (TransferEstimate, error) {
	if t.Network == nil {
		return TransferEstimate{}, fmt.Errorf("estimator: transfer estimator has no network")
	}
	if sizeMB < 0 {
		return TransferEstimate{}, fmt.Errorf("estimator: negative file size %v", sizeMB)
	}
	p, err := t.Network.Probe(src, dst)
	if err != nil {
		return TransferEstimate{}, fmt.Errorf("estimator: bandwidth probe: %w", err)
	}
	if p.SteadyStateMBps <= 0 {
		return TransferEstimate{}, fmt.Errorf("estimator: measured non-positive bandwidth %v", p.SteadyStateMBps)
	}
	return TransferEstimate{
		Seconds:        p.Latency.Seconds() + sizeMB/p.SteadyStateMBps,
		BandwidthMBps:  p.SteadyStateMBps,
		LatencySeconds: p.Latency.Seconds(),
	}, nil
}

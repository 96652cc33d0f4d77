// Package estimator implements the paper's Estimator Service: the runtime
// estimator (history-based statistical prediction), the queue-time
// estimator (remaining work of higher-priority tasks), and the
// file-transfer-time estimator (measured bandwidth × size).
//
// Runtime prediction follows the paper's §6.1: "History based runtime
// prediction algorithms operate on the idea that tasks with similar
// characteristics generally have similar runtimes. We maintain a history
// of tasks that have executed along with their respective runtimes. To
// estimate the runtime, we identify similar tasks in the history and then
// compute a statistical estimate (the mean and linear regression) of
// their runtimes." Similarity is defined by attribute templates in the
// style of Smith, Taylor and Foster [25], the technique the paper cites
// for the approach. The templates are tried in a fixed order,
// DefaultTemplates unless a caller sets its own; the deployment and
// Figure 5 use that order and nothing searches for a better one.
//
// History maintenance is decentralized, as in the paper: each execution
// site owns a History, and the scheduler fans out estimate requests to
// every site.
//
// Queue time (§6.2) is a function, QueueTime(pool, id), of the pool's
// queue: the submission-time estimates it sums live in the job ads, where
// the scheduler stamps them, so it holds no state of its own. The queue
// and transfer predictions are the wire records gae.QueueEstimate and
// gae.TransferEstimate.
package estimator

import (
	"fmt"

	"repro/internal/durable"
)

// TaskRecord is one completed task in the history. The fields mirror the
// SDSC Paragon accounting data the paper evaluates on: "account name;
// login name; partition...; the number of nodes...; the job type (batch or
// interactive); the job status...; the number of requested CPU hours; the
// name of the queue...; the rate of charge...; and the task's duration".
// It is the durable snapshot's record, so the estimator section is the
// history itself.
type TaskRecord = durable.HistoryRecord

// Validate reports structural problems with a record.
func Validate(r TaskRecord) error {
	switch {
	case r.RuntimeSeconds < 0:
		return fmt.Errorf("estimator: negative runtime %v", r.RuntimeSeconds)
	case r.Nodes < 0:
		return fmt.Errorf("estimator: negative node count %d", r.Nodes)
	case r.ReqHours < 0:
		return fmt.Errorf("estimator: negative requested hours %v", r.ReqHours)
	}
	return nil
}

// History is a bounded store of completed-task records.
type History struct {
	records []TaskRecord
	cap     int
}

// NewHistory creates a history retaining at most cap records (FIFO
// eviction); cap <= 0 means unbounded.
func NewHistory(cap int) *History {
	return &History{cap: cap}
}

// Add appends a record, evicting the oldest when over capacity.
func (h *History) Add(r TaskRecord) error {
	if err := Validate(r); err != nil {
		return err
	}
	h.records = append(h.records, r)
	if h.cap > 0 && len(h.records) > h.cap {
		h.records = h.records[len(h.records)-h.cap:]
	}
	return nil
}

// Len returns the record count.
func (h *History) Len() int {
	return len(h.records)
}

// similarRuns returns the runtimes and requested CPU-hours of the
// successful records that agree with target on every attribute of tpl, in
// insertion order: the two columns an estimate computes on, sized by a
// counting pass, so no record is copied.
func (h *History) similarRuns(tpl Template, target *TaskRecord) (runtimes, reqs []float64) {
	similar := func(r *TaskRecord) bool { return r.Succeeded && tpl.matches(target, r) }
	n := 0
	for i := range h.records {
		if similar(&h.records[i]) {
			n++
		}
	}
	if n == 0 {
		return nil, nil
	}
	runtimes, reqs = make([]float64, 0, n), make([]float64, 0, n)
	for i := range h.records {
		if r := &h.records[i]; similar(r) {
			runtimes = append(runtimes, r.RuntimeSeconds)
			reqs = append(reqs, r.ReqHours)
		}
	}
	return runtimes, reqs
}

package estimator

import (
	"slices"
	"sort"

	"repro/internal/durable"
)

// Export copies the history's records in insertion order for the durable
// snapshot codec.
func (h *History) Export() []TaskRecord {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return slices.Clone(h.records)
}

// Restore replaces the history's contents with exported records,
// re-applying the capacity bound.
func (h *History) Restore(records []TaskRecord) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.cap > 0 && len(records) > h.cap {
		records = records[len(records)-h.cap:]
	}
	h.records = slices.Clone(records)
}

// Export serializes the estimate database sorted by pool then job ID —
// the canonical order the recovery suite compares.
func (db *EstimateDB) Export() []durable.JobEstimate {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]durable.JobEstimate, 0, len(db.estimates))
	for k, v := range db.estimates {
		out = append(out, durable.JobEstimate{Pool: k.pool, ID: k.id, Seconds: v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pool != out[j].Pool {
			return out[i].Pool < out[j].Pool
		}
		return out[i].ID < out[j].ID
	})
	if len(out) == 0 {
		return nil
	}
	return out
}

// Restore replaces the database contents with exported estimates.
func (db *EstimateDB) Restore(estimates []durable.JobEstimate) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.estimates = make(map[dbKey]float64, len(estimates))
	for _, e := range estimates {
		db.estimates[dbKey{pool: e.Pool, id: e.ID}] = e.Seconds
	}
}

package estimator

import "slices"

// Export copies the history's records in insertion order for the durable
// snapshot codec.
func (h *History) Export() []TaskRecord {
	return slices.Clone(h.records)
}

// Restore replaces the history's contents with exported records,
// re-applying the capacity bound.
func (h *History) Restore(records []TaskRecord) {
	if h.cap > 0 && len(records) > h.cap {
		records = records[len(records)-h.cap:]
	}
	h.records = slices.Clone(records)
}

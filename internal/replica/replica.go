// Package replica implements a replica catalog: the data-grid component
// the paper's introduction requires of the distributed software system —
// "to identify where the requested data is located, to determine the best
// and closest available locations" — before jobs can be placed near their
// data.
//
// The catalog maps dataset names to the sites holding replicas. The
// scheduler consults it when a task's input names a dataset without a
// fixed source: each candidate replica is scored by measured transfer
// time to the execution site (the estimator service's iperf-style probe),
// and the closest one is staged. New replicas created by staging and by
// job outputs are registered back, so the data distribution evolves with
// the workload.
package replica

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/durable"
	"repro/internal/estimator"
)

// Location is one replica of a dataset; it is the durable snapshot's
// catalog entry.
type Location = durable.ReplicaLocation

// Catalog is a replica catalog.
type Catalog struct {
	sets map[string]map[string]float64 // dataset → site → size
}

// NewCatalog creates an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{sets: make(map[string]map[string]float64)}
}

// Register records a replica of dataset at site.
func (c *Catalog) Register(dataset, site string, sizeMB float64) error {
	if dataset == "" || site == "" {
		return fmt.Errorf("replica: empty dataset or site")
	}
	if sizeMB < 0 || math.IsNaN(sizeMB) || math.IsInf(sizeMB, 0) {
		return fmt.Errorf("replica: invalid size %v for %q", sizeMB, dataset)
	}
	m, ok := c.sets[dataset]
	if !ok {
		m = make(map[string]float64)
		c.sets[dataset] = m
	}
	m[site] = sizeMB
	return nil
}

// Locations lists a dataset's replicas sorted by site.
func (c *Catalog) Locations(dataset string) []Location {
	m := c.sets[dataset]
	out := make([]Location, 0, len(m))
	for site, size := range m {
		out = append(out, Location{Dataset: dataset, Site: site, SizeMB: size})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}

// Datasets lists the catalogued dataset names, sorted.
func (c *Catalog) Datasets() []string {
	out := make([]string, 0, len(c.sets))
	for d := range c.sets {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// Best selects the replica of dataset with the lowest estimated transfer
// time to dstSite, using the estimator's bandwidth probe. A replica
// already at dstSite wins immediately with zero cost. Ties break by site
// name.
func (c *Catalog) Best(te *estimator.TransferEstimator, dataset, dstSite string) (Location, float64, error) {
	locs := c.Locations(dataset)
	if len(locs) == 0 {
		return Location{}, 0, fmt.Errorf("replica: no replicas of %q", dataset)
	}
	for _, l := range locs {
		if l.Site == dstSite {
			return l, 0, nil
		}
	}
	if te == nil {
		// Without an estimator, fall back to the first (name-ordered)
		// replica — deterministic, if not optimal.
		return locs[0], 0, nil
	}
	var best Location
	bestSec := 0.0
	found := false
	for _, l := range locs {
		est, err := te.Estimate(l.Site, dstSite, l.SizeMB)
		if err != nil {
			continue // unreachable replica
		}
		if !found || est.Seconds < bestSec {
			best, bestSec, found = l, est.Seconds, true
		}
	}
	if !found {
		return Location{}, 0, fmt.Errorf("replica: no reachable replica of %q from %s", dataset, dstSite)
	}
	return best, bestSec, nil
}

package condor

import (
	"cmp"
	"slices"
	"strings"
)

// Picking one job's machine out of the free buckets: rank-ordered views
// for large buckets, the exhaustive scan for the rest.

// pickKey names one ordered view: an arch bucket as one rank class (see
// classad.Matcher.RankClass) orders it.
type pickKey struct{ arch, rank string }

// pickBucket is one view's per-pass pick state: the bucket's free machines
// by (rank descending, node name ascending) with a cursor that permanently
// skips machines claimed (or pass-excluded) earlier in the same pass.
// Rebuilt lazily once per pass; exhaustive marks a pass in which some
// machine's rank is not a function of the machine alone.
type pickBucket struct {
	gen        uint64
	sorted     []pickEntry
	cur        int
	exhaustive bool
}

type pickEntry struct {
	m    *machine
	rank float64
}

// pickIndexedLocked returns j's best matching local machine. Jobs whose
// Requirements pin Arch scan only that bucket (plus machines with
// non-literal Arch); unconstrained jobs scan every bucket. The winner is
// the highest job-Rank match, ties broken by machine name, a total order
// that makes the result independent of bucket iteration order.
func (p *Pool) pickIndexedLocked(j *job) *machine {
	if j.reqArch != "" {
		best, bestRank := p.pickFromBucketLocked(j, j.reqArch, nil, 0)
		best, _ = p.pickFromBucketLocked(j, dynamicBucket, best, bestRank)
		return best
	}
	var best *machine
	bestRank := 0.0
	for key := range p.freeBuckets {
		best, bestRank = p.pickFromBucketLocked(j, key, best, bestRank)
	}
	return best
}

// sortedPickThreshold is the free-bucket size above which picks switch
// from the full best-rank scan to the per-pass ordered cursor. Small
// buckets (the steady state: a completion frees one machine) scan
// directly — building the sorted view would cost more.
const sortedPickThreshold = 16

// pickFromBucketLocked folds one free bucket into the running
// (best, bestRank) pair. Jobs of one rank class rank a machine alike, so
// under the pinned total order (rank, then machine name) the winner is
// the first acceptable machine of the class's per-pass ordered view:
// Rank runs once per free machine per pass and a pick costs about
// 1/(share of machines that match) Match calls, not one Match + Rank per
// free machine, without changing a single placement. Small buckets, Ranks
// that read the job, and buckets holding a machine whose ranked attribute
// is an expression keep the exhaustive scan.
func (p *Pool) pickFromBucketLocked(j *job, key string, best *machine, bestRank float64) (*machine, float64) {
	b := p.freeBuckets[key]
	if len(b) > sortedPickThreshold {
		if class, ok := j.matcher.RankClass(); ok {
			view := pickKey{key, class}
			pb := p.pickSorted[view]
			if pb == nil {
				if p.pickSorted == nil {
					p.pickSorted = make(map[pickKey]*pickBucket)
				}
				pb = &pickBucket{}
				p.pickSorted[view] = pb
			}
			if pb.gen != p.pickGen {
				pb.build(p.pickGen, j, b)
				p.obsViewBuilds.Inc()
			}
			if !pb.exhaustive {
				return p.pickOrderedLocked(j, pb, best, bestRank)
			}
		}
	}
	p.obsScans.Inc()
	return p.bestCandidate(j, b, best, bestRank)
}

// build snapshots free bucket b for pass gen in the preference order of
// j's rank class.
func (pb *pickBucket) build(gen uint64, j *job, b []*machine) {
	pb.gen, pb.cur, pb.sorted, pb.exhaustive = gen, 0, pb.sorted[:0], false
	for _, m := range b {
		r, ok := j.matcher.TargetRank(m.matcher)
		if !ok {
			pb.exhaustive = true
			return
		}
		pb.sorted = append(pb.sorted, pickEntry{m, r})
	}
	slices.SortFunc(pb.sorted, func(a, c pickEntry) int {
		if byRank := cmp.Compare(c.rank, a.rank); byRank != 0 {
			return byRank
		}
		return strings.Compare(a.m.node.Name, c.m.node.Name)
	})
}

// pickOrderedLocked walks a view from its cursor to j's first acceptable
// machine and folds it against the other buckets' carry.
func (p *Pool) pickOrderedLocked(j *job, pb *pickBucket, best *machine, bestRank float64) (*machine, float64) {
	for i := pb.cur; i < len(pb.sorted); i++ {
		m := pb.sorted[i].m
		if m.freeIdx < 0 || m.skipFor == p {
			// Claimed earlier in this pass, or excluded for the whole
			// pass: gone for good — compact the cursor past a leading run.
			if i == pb.cur {
				pb.cur++
			}
			continue
		}
		if j.reqOpSys != "" && m.opsKnown && m.opsKey != j.reqOpSys {
			continue // rejected for this job only; later jobs may differ
		}
		if !j.matcher.Match(m.matcher) {
			continue
		}
		// First acceptable machine in preference order: no later one in
		// this bucket can beat it. The job's own Rank (its constant, in
		// the degenerate class) is what folds against the carry.
		r := j.matcher.Rank(m.matcher)
		if best == nil || r > bestRank || (r == bestRank && m.node.Name < best.node.Name) {
			return m, r
		}
		return best, bestRank
	}
	return best, bestRank
}

// bestCandidate scans cands for j's best match, carrying the running
// (best, bestRank) pair. Static Arch/OpSys filters prune candidates
// before the ClassAd match evaluates.
func (p *Pool) bestCandidate(j *job, cands []*machine, best *machine, bestRank float64) (*machine, float64) {
	for _, m := range cands {
		if m.skipFor == p {
			continue
		}
		if j.reqArch != "" && m.archKey != j.reqArch && m.archKey != dynamicBucket {
			continue
		}
		if j.reqOpSys != "" && m.opsKnown && m.opsKey != j.reqOpSys {
			continue
		}
		if !j.matcher.Match(m.matcher) {
			continue
		}
		r := j.matcher.Rank(m.matcher)
		if best == nil || r > bestRank || (r == bestRank && m.node.Name < best.node.Name) {
			best, bestRank = m, r
		}
	}
	return best, bestRank
}

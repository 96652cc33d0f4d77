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

// pickView is one (arch bucket, rank class) view: the bucket's free
// machines by (rank descending, node name ascending), kept from pass to
// pass. A rank is computed when a machine enters the view and stands until
// the machine re-enters it — a machine freed, or whose match ad changed, is
// collected by the pass refresh (machine.viewDirty) and merged in afresh,
// which also retires its old entry. Machines claimed since stay behind as
// tombstones the cursor skips; the next pass's sync compacts them away, so
// they never outnumber the entries the pass began with.
type pickView struct {
	gen    uint64 // the pass (Pool.pickGen) the view was last synced in
	sorted []pickEntry
	// cur permanently skips the leading machines claimed (or
	// pass-excluded) earlier in the same pass.
	cur int
	// unranked holds the bucket's free machines that define an attribute
	// the class's Rank reads as an expression: their rank is not a function
	// of the machine alone, so while any is free the view cannot order the
	// bucket and picks fall back to the exhaustive scan.
	unranked []*machine
}

type pickEntry struct {
	m    *machine
	rank float64
}

func (a pickEntry) compare(b pickEntry) int {
	if byRank := cmp.Compare(b.rank, a.rank); byRank != 0 {
		return byRank
	}
	return strings.Compare(a.m.node.Name, b.m.node.Name)
}

// pickIndexed returns j's best matching local machine. Jobs whose
// Requirements pin Arch scan only that bucket (plus machines with
// non-literal Arch); unconstrained jobs scan every bucket. The winner is
// the highest job-Rank match, ties broken by machine name, a total order
// that makes the result independent of bucket iteration order.
func (p *Pool) pickIndexed(j *job) *machine {
	if j.reqArch != noConstraint {
		best, bestRank := p.pickFromBucket(j, p.constraints[j.reqArch], nil, 0)
		best, _ = p.pickFromBucket(j, dynamicBucket, best, bestRank)
		return best
	}
	var best *machine
	bestRank := 0.0
	for key := range p.freeBuckets {
		best, bestRank = p.pickFromBucket(j, key, best, bestRank)
	}
	return best
}

// sortedPickThreshold is the free-bucket size above which picks switch
// from the full best-rank scan to the ordered view. Small buckets (the
// steady state: a completion frees one machine) scan directly — keeping a
// view would cost more.
const sortedPickThreshold = 16

// pickFromBucket folds one free bucket into the running
// (best, bestRank) pair. Jobs of one rank class rank a machine alike, so
// under the pinned total order (rank, then machine name) the winner is
// the first acceptable machine of the class's ordered view: Rank runs once
// per machine entering the view and a pick costs about 1/(share of
// machines that match) Match calls, not one Match + Rank per free machine,
// without changing a single placement. Small buckets, Ranks that read the
// job, and buckets holding a machine whose ranked attribute is an
// expression keep the exhaustive scan.
func (p *Pool) pickFromBucket(j *job, key string, best *machine, bestRank float64) (*machine, float64) {
	b := p.freeBuckets[key]
	if len(b) > sortedPickThreshold {
		class, ok := "", true // a job without Rank is of the degenerate class
		if !j.anyMachine {
			class, ok = j.matcher.RankClass()
		}
		if ok {
			k := pickKey{key, class}
			v := p.pickViews[k]
			if v == nil {
				if p.pickViews == nil {
					p.pickViews = make(map[pickKey]*pickView)
				}
				v = &pickView{}
				p.pickViews[k] = v
				p.obsViewBuilds.Inc()
				v.sync(p, j, k, b) // from empty, every free machine is new
			} else if v.gen != p.pickGen {
				v.sync(p, j, k, p.changed)
			}
			if len(v.unranked) == 0 {
				return p.pickOrdered(j, v, best, bestRank)
			}
		}
	}
	p.obsScans.Inc()
	return p.bestCandidate(j, b, best, bestRank)
}

// sync brings the view up to the current pass: entries of machines claimed
// since, or collected into this pass's changed list, go; the machines of
// fresh that are free in this bucket are ranked by j (any job of the class
// ranks them alike), sorted and merged in. Every surviving view saw the
// previous pass (refreshFree drops the others), so the pass's
// changed list is exactly what it has missed.
func (v *pickView) sync(p *Pool, j *job, k pickKey, fresh []*machine) {
	v.gen, v.cur = p.pickGen, 0
	gone := func(m *machine) bool { return m.freeIdx < 0 || m.viewGen == p.pickGen }
	kept := slices.DeleteFunc(v.sorted, func(e pickEntry) bool { return gone(e.m) })
	unranked := slices.DeleteFunc(v.unranked, gone)
	add := p.pickScratch[:0]
	for _, m := range fresh {
		if m.freeIdx < 0 || m.archKey != k.arch {
			continue
		}
		e := pickEntry{m: m}
		// The degenerate class orders by name alone: its "rank" is each
		// job's own constant, which must not outlive the job.
		if k.rank != "" {
			p.obsRankEvals.Inc()
			r, ok := j.matcher.TargetRank(m.matcher)
			if !ok {
				unranked = append(unranked, m)
				continue
			}
			e.rank = r
		}
		add = append(add, e)
	}
	slices.SortFunc(add, pickEntry.compare)
	// Merge from the back, in place: kept's tail moves up to make room and
	// the walk ends with the last new entry placed.
	i, n := len(kept)-1, len(add)-1
	kept = append(kept, add...)
	for w := len(kept) - 1; n >= 0; w-- {
		if i >= 0 && kept[i].compare(add[n]) > 0 {
			kept[w] = kept[i]
			i--
		} else {
			kept[w] = add[n]
			n--
		}
	}
	v.sorted, v.unranked, p.pickScratch = kept, unranked, add[:0]
}

// pickOrdered walks a view from its cursor to j's first acceptable
// machine and folds it against the other buckets' carry.
func (p *Pool) pickOrdered(j *job, v *pickView, best *machine, bestRank float64) (*machine, float64) {
	for i := v.cur; i < len(v.sorted); i++ {
		m := v.sorted[i].m
		if m.freeIdx < 0 || m.skipFor == p {
			// Claimed earlier in this pass, or excluded for the whole
			// pass: gone for good — compact the cursor past a leading run.
			if i == v.cur {
				v.cur++
			}
			continue
		}
		if j.reqOpSys != noConstraint && m.opsKnown && m.opsKey != p.constraints[j.reqOpSys] {
			continue // rejected for this job only; later jobs may differ
		}
		r, ok := pairMatch(j, m)
		if !ok {
			continue
		}
		// First acceptable machine in preference order: no later one in
		// this bucket can beat it. The job's own Rank (its constant, in
		// the degenerate class) is what folds against the carry.
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
		if j.reqArch != noConstraint && m.archKey != p.constraints[j.reqArch] && m.archKey != dynamicBucket {
			continue
		}
		if j.reqOpSys != noConstraint && m.opsKnown && m.opsKey != p.constraints[j.reqOpSys] {
			continue
		}
		r, ok := pairMatch(j, m)
		if !ok {
			continue
		}
		if best == nil || r > bestRank || (r == bestRank && m.node.Name < best.node.Name) {
			best, bestRank = m, r
		}
	}
	return best, bestRank
}

// pairMatch reports whether j and m match and, if they do, j's Rank of m.
// A job with neither Requirements nor Rank ranks every machine 0, and
// matches one without Requirements without evaluating either ad.
func pairMatch(j *job, m *machine) (rank float64, ok bool) {
	if j.anyMachine {
		return 0, m.anyJob || j.matcher.Match(m.matcher)
	}
	if !j.matcher.Match(m.matcher) {
		return 0, false
	}
	return j.matcher.Rank(m.matcher), true
}

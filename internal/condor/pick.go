package condor

import (
	"cmp"
	"slices"
)

// Picking one job's machine out of the free buckets: rank-ordered views
// for large buckets, the exhaustive scan for the rest.

// classViews are one rank class's views (see classad.Matcher.RankClass)
// by arch key, and the last pass that used them. ranked: the class has a
// key, so an entry's rank is the one every job of the class gives it.
type classViews struct {
	byArch []*pickView
	gen    uint64
	ranked bool
}

// pickView is one (arch bucket, rank class) view: the bucket's free
// machines by (rank descending, node name ascending), kept from pass to
// pass. A rank is computed when a machine enters the view and stands until
// the machine re-enters it — a machine freed, or whose LoadAvg changed, is
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

// pickEntry is a machine in a view, as its rank and its node name's
// ordinal (machine.ord, its index in Pool.byName): no pointer for the
// collector to scan.
type pickEntry struct {
	rank float64
	ord  uint32
}

func (a pickEntry) compare(b pickEntry) int {
	if byRank := cmp.Compare(b.rank, a.rank); byRank != 0 {
		return byRank
	}
	return cmp.Compare(a.ord, b.ord)
}

// pickIndexed returns j's best matching local machine. Jobs whose
// Requirements pin Arch scan only that bucket (plus machines with
// non-literal Arch); unconstrained jobs scan every bucket. The winner is
// the highest job-Rank match, ties broken by machine name, a total order
// that makes the result independent of bucket iteration order.
func (p *Pool) pickIndexed(j *job) *machine {
	var cv *classViews // j's class's views, looked up at the first large bucket
	if j.reqArch != noConstraint {
		best, bestRank := p.pickFromBucket(j, &cv, j.reqArch, nil, 0)
		best, _ = p.pickFromBucket(j, &cv, dynamicBucket, best, bestRank)
		return best
	}
	var best *machine
	bestRank := 0.0
	for key := range p.freeBuckets {
		best, bestRank = p.pickFromBucket(j, &cv, constraintKey(key), best, bestRank)
	}
	return best
}

// sortedPickThreshold is the free-bucket size above which picks switch
// from the full best-rank scan to the ordered view. Small buckets (the
// steady state: a completion frees one machine) scan directly — keeping a
// view would cost more.
const sortedPickThreshold = 16

// pickFromBucket folds the free bucket of arch key into the running
// (best, bestRank) pair. Jobs of one rank class rank a machine alike, so
// under the pinned total order (rank, then machine name) the winner is
// the first acceptable machine of the class's ordered view: Rank runs once
// per machine entering the view and a pick costs about 1/(share of
// machines that match) Match calls, not one Match + Rank per free machine,
// without changing a single placement. Small buckets, Ranks that read the
// job, and buckets holding a machine whose ranked attribute is an
// expression keep the exhaustive scan. *cv is j's class's views, looked
// up at the pick's first large bucket.
func (p *Pool) pickFromBucket(j *job, cv **classViews, key constraintKey, best *machine, bestRank float64) (*machine, float64) {
	b := p.freeBuckets[key]
	if len(b) == 0 {
		return best, bestRank
	}
	if len(b) > sortedPickThreshold {
		class, ok := j.rankClass()
		if ok {
			if *cv == nil {
				*cv = p.classViews(class)
			}
			if v := (*cv).view(p, j, key, b); len(v.unranked) == 0 {
				return p.pickOrdered(j, *cv, v, best, bestRank)
			}
		}
	}
	p.obsScans.Inc()
	return p.bestCandidate(j, b, best, bestRank)
}

// classViews returns rank class class's views, made on first use, marked
// used in this pass.
func (p *Pool) classViews(class string) *classViews {
	cv := p.pickViews[class]
	if cv == nil {
		if p.pickViews == nil {
			p.pickViews = make(map[string]*classViews)
		}
		cv = &classViews{ranked: class != ""}
		p.pickViews[class] = cv
	}
	cv.gen = p.pickGen
	return cv
}

// view returns the view of bucket b of arch key, synced to this pass; one
// that missed the previous pass's changed list is built afresh, from b.
func (cv *classViews) view(p *Pool, j *job, key constraintKey, b []*machine) *pickView {
	if n := int(key) + 1 - len(cv.byArch); n > 0 {
		cv.byArch = append(cv.byArch, make([]*pickView, n)...)
	}
	v := cv.byArch[key]
	switch {
	case v == nil || v.gen+1 < p.pickGen:
		v = &pickView{}
		cv.byArch[key] = v
		p.obsViewBuilds.Inc()
		v.sync(p, j, cv, key, b)
	case v.gen != p.pickGen:
		v.sync(p, j, cv, key, p.changed)
	}
	return v
}

// sync brings the view up to the current pass: entries of machines claimed
// since, or collected into this pass's changed list, go; the machines of
// fresh that are free in this bucket are ranked by j (any job of the class
// ranks them alike), sorted and merged in. A view synced here saw the
// previous pass (view builds the others afresh), so the pass's changed
// list is exactly what it has missed.
func (v *pickView) sync(p *Pool, j *job, cv *classViews, arch constraintKey, fresh []*machine) {
	v.gen, v.cur = p.pickGen, 0
	gone := func(m *machine) bool { return m.freeIdx < 0 || m.viewGen == p.pickGen }
	kept := slices.DeleteFunc(v.sorted, func(e pickEntry) bool { return gone(p.byName[e.ord]) })
	unranked := slices.DeleteFunc(v.unranked, gone)
	add := p.pickScratch[:0]
	for _, m := range fresh {
		if m.freeIdx < 0 || m.archKey != arch {
			continue
		}
		e := pickEntry{ord: m.ord}
		// The degenerate class orders by name alone: its "rank" is each
		// job's own constant, which must not outlive the job.
		if cv.ranked {
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
// machine and folds it against the other buckets' carry. In a ranked
// class the entry's rank is j's Rank of the machine, so only Match runs.
func (p *Pool) pickOrdered(j *job, cv *classViews, v *pickView, best *machine, bestRank float64) (*machine, float64) {
	for i := v.cur; i < len(v.sorted); i++ {
		e := &v.sorted[i]
		m := p.byName[e.ord]
		if m.freeIdx < 0 || m.skipFor == p {
			// Claimed earlier in this pass, or excluded for the whole
			// pass: gone for good — compact the cursor past a leading run.
			if i == v.cur {
				v.cur++
			}
			continue
		}
		if j.reqOpSys != noConstraint && m.opsKey != dynamicBucket && m.opsKey != j.reqOpSys {
			continue // rejected for this job only; later jobs may differ
		}
		r, ok := e.rank, false
		if cv.ranked {
			ok = j.matcher.Match(m.matcher)
		} else {
			r, ok = pairMatch(j, m)
		}
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

// bestCandidate scans cands, machines of one pool, for j's best match,
// carrying the running (best, bestRank) pair. Static Arch/OpSys filters
// prune candidates before the ClassAd match evaluates; a flocking peer's
// machines are keyed in the peer's table, so j's pins are looked up there.
func (p *Pool) bestCandidate(j *job, cands []*machine, best *machine, bestRank float64) (*machine, float64) {
	arch, opsys := j.reqArch, j.reqOpSys
	if len(cands) > 0 && cands[0].owner != p {
		q := cands[0].owner
		arch, opsys = q.constraint(p.constraints[arch]), q.constraint(p.constraints[opsys])
	}
	for _, m := range cands {
		if m.skipFor == p {
			continue
		}
		if arch != noConstraint && m.archKey != arch && m.archKey != dynamicBucket {
			continue
		}
		if opsys != noConstraint && m.opsKey != dynamicBucket && m.opsKey != opsys {
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

// rankClass is j's Rank class (classad.Matcher.RankClass): a job without
// a Matcher has no Rank, and is of the degenerate class.
func (j *job) rankClass() (key string, ok bool) {
	if j.matcher == nil {
		return "", true
	}
	return j.matcher.RankClass()
}

// pairMatch reports whether j and m match and, if they do, j's Rank of m.
// A job without a Matcher has neither Requirements nor Rank: it ranks
// every machine 0, matches one without Requirements without evaluating
// either ad, and any other by that machine's Requirements alone.
func pairMatch(j *job, m *machine) (rank float64, ok bool) {
	if j.matcher == nil {
		return 0, m.anyJob || m.matcher.Accepts(j.ad)
	}
	if !j.matcher.Match(m.matcher) {
		return 0, false
	}
	return j.matcher.Rank(m.matcher), true
}

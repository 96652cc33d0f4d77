package condor

import (
	"sort"
	"time"

	"repro/internal/classad"
	"repro/internal/fairshare"
	"repro/internal/simgrid"
)

// The seed's negotiation path, kept as the behavioral specification for
// the production negotiator (negotiate.go, queue.go): a full re-sort of
// the idle queue and a full free-machine rescan per tick, and a fresh ad
// clone per (job, machine) candidate. TestNegotiationParity replays seeded
// workloads through both and requires identical job→machine assignments
// and timings; the order tests hold the incremental stream to the re-sort.
// This is the replaced production code: the sort keeps the one Ranker arm
// that ever had an implementation, and the negotiator asks for its own
// per-tick cadence through loadWakeAt now that the pool re-arms for
// nothing else.

// useReferenceNegotiator switches p to the reference negotiator.
func (p *Pool) useReferenceNegotiator() {
	p.negotiateOracle = p.negotiateReference
}

// idleSorted returns the idle jobs in negotiation order by sorting
// all of them: the fair-share policy's order when one is installed,
// otherwise priority descending with FIFO within a level.
func (p *Pool) idleSorted() []*job {
	var idle []*job
	for _, j := range p.active {
		if j.status == StatusIdle {
			idle = append(idle, j)
		}
	}
	if p.fair != nil {
		// Refs are built once per sort: a comparator that re-evaluates
		// classad attributes per comparison dominates negotiation cost.
		refs := make([]fairshare.JobRef, len(idle))
		for i, j := range idle {
			refs[i] = p.jobRef(j)
		}
		order := make([]int, len(idle))
		for i := range order {
			order[i] = i
		}
		// One timestamp for the whole pass keeps the comparator a strict
		// weak ordering even on a clock that advances mid-sort, and the
		// key form computes standing in one locked pass so the sort
		// itself runs lock-free.
		keys := p.fair.AppendSortKeys(nil, p.grid.Engine.Now(), refs)
		sort.SliceStable(order, func(a, b int) bool {
			ia, ib := order[a], order[b]
			return fairshare.LessKeys(refs[ia], refs[ib], keys[ia], keys[ib])
		})
		out := make([]*job, len(idle))
		for i, idx := range order {
			out[i] = idle[idx]
		}
		return out
	}
	sort.SliceStable(idle, func(a, b int) bool {
		if idle[a].priority != idle[b].priority {
			return idle[a].priority > idle[b].priority
		}
		return idle[a].id < idle[b].id
	})
	return idle
}

func (p *Pool) negotiateReference(now time.Time) int {
	idle := p.idleSorted()
	if len(idle) == 0 {
		return 0
	}
	free := p.scanFreeRef()
	var peerFree []*machine
	if p.flockPeer != nil {
		peerFree = p.flockPeer.freeMachinesRef()
	}
	matched := 0
	for _, j := range idle {
		m := pickMachineReference(j.ad, free, now)
		if m == nil && len(peerFree) > 0 {
			m = pickMachineReference(j.ad, peerFree, now)
			peerFree = removeMachine(peerFree, m)
		} else {
			free = removeMachine(free, m)
		}
		if m == nil {
			continue
		}
		p.start(j, m, now)
		matched++
	}
	if p.idleCount > 0 {
		p.loadWakeAt = now.Add(p.grid.Engine.Tick())
	}
	return matched
}

// scanFreeRef lists machines with no running task by scanning the
// full machine list — the seed's per-tick behavior.
func (p *Pool) scanFreeRef() []*machine {
	var out []*machine
	for _, m := range p.machines {
		if m.node.TaskCount() == 0 {
			out = append(out, m)
		}
	}
	return out
}

func (p *Pool) freeMachinesRef() []*machine {
	if p.down {
		return nil
	}
	return p.scanFreeRef()
}

// pickMachineReference returns the matching machine with the highest job
// Rank, breaking ties by machine name for determinism — cloning each
// candidate's ad to overlay LoadAvg, as the seed did.
func pickMachineReference(jobAd *classad.Ad, machines []*machine, now time.Time) *machine {
	var best *machine
	bestRank := 0.0
	job := classad.NewMatcher(jobAd)
	for _, m := range machines {
		ad := m.ad.Clone()
		ad.Set("LoadAvg", m.node.LoadAt(now))
		target := classad.NewMatcher(ad)
		if !job.Match(target) {
			continue
		}
		r := job.Rank(target)
		if best == nil || r > bestRank || (r == bestRank && m.node.Name < best.node.Name) {
			best, bestRank = m, r
		}
	}
	return best
}

// eagerAccrual is the accrual path usage flows replaced, kept as their
// oracle: woken every tick, it reads the CPU of each running job of the
// pool it watches and records with sink what was executed since its last
// reading, attributed to the site whose machine ran it. It must be
// registered with the engine ahead of the pool (newEagerAccrual before
// NewPool, pool set afterwards) and the pool ahead of its nodes: it then
// reads, at every boundary, the work the nodes have settled through the
// boundary before, which is what a flow opened and re-rated at the pool's
// turn has integrated, and it sees every job's last delta before the pool's
// harvest seals the job later in the same boundary. Terminal transitions
// made between boundaries (Remove) are not followed.
type eagerAccrual struct {
	pool     *Pool
	sink     fairshare.Sink
	wake     *simgrid.Wake
	recorded map[int]float64
}

func newEagerAccrual(e *simgrid.Engine, sink fairshare.Sink) *eagerAccrual {
	d := &eagerAccrual{sink: sink, recorded: make(map[int]float64)}
	d.wake = e.Register(d.onWake)
	d.wake.Request(e.Now())
	return d
}

func (d *eagerAccrual) onWake(now time.Time) {
	p := d.pool
	for _, j := range p.active {
		if j.status != StatusRunning || j.task == nil {
			continue
		}
		cpu := p.cpuSeconds(j) - j.cpuBase
		if delta := cpu - d.recorded[j.id]; delta > 0 {
			d.sink.RecordUsage(j.owner, j.host.node.Site, delta)
			d.recorded[j.id] = cpu
		}
	}
	d.wake.Request(now.Add(p.grid.Engine.Tick()))
}

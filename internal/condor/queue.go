package condor

import (
	"cmp"
	"container/heap"
	"slices"
	"sort"
	"time"

	"repro/internal/fairshare"
)

// This file maintains the negotiation order incrementally across passes
// and is its one definition: negotiation passes, QueuePosition and
// QueueAbove all read it off a negotiationStream.
//
// Re-sorting every idle job on every pass is O(idle log idle) per pass,
// ruinous for a deep backlog where each pass matches only the handful of
// machines that freed since the last one (that sort survives in
// oracle_test.go, where the order tests hold the stream to it). The
// orders the pool negotiates under are both "block orders" whose
// within-owner part is static:
//
//   - static policy (no fair share): priority desc, then ID asc;
//   - a fairshare.Ranker (the Manager): starved owners' oldest jobs
//     first in FIFO order, then by (owner effective priority desc, job
//     static priority desc, submit time, seq) — see fairshare.LessKeys.
//
// Within one owner, every comparison after the owner-level effective
// priority is static (priority, submit time, seq never change while a
// job waits, and SetPriority re-files the job). So each owner's idle
// jobs live in per-priority FIFO buckets maintained incrementally at
// submit / priority-change / dequeue time, and a pass merges the
// per-owner streams with a small heap keyed by the time-varying
// owner-level standing — O(matched · log owners) instead of a full
// sort. Stale entries (job left Idle, or priority changed) are skipped
// lazily and garbage-collected as bucket heads advance past them.

// qentry is one queue slot; it is stale once the job left Idle or its
// qgen moved on (priority change re-filed it). A negative gen opts out
// of the generation check: the submission-order list is
// priority-independent, so its entries stay valid across refiles.
type qentry struct {
	j   *job
	gen int32
}

func (e qentry) valid() bool {
	return e.j.status == StatusIdle && (e.gen < 0 || e.gen == e.j.qgen)
}

// qlist is an append-only FIFO with lazy head compaction.
type qlist struct {
	items []qentry
	head  int
}

func (l *qlist) push(e qentry) { l.items = append(l.items, e) }

// gcHead drops exhausted prefixes and stale heads so repeated scans do
// not re-walk dead entries; interior stale entries are skipped by
// cursors and collected when the head reaches them.
func (l *qlist) gcHead() {
	for l.head < len(l.items) && !l.items[l.head].valid() {
		l.items[l.head].j = nil
		l.head++
	}
	if l.head == len(l.items) {
		l.items = l.items[:0]
		l.head = 0
	}
}

// ownerQueue holds one owner's idle jobs (or, under the static policy,
// the whole pool's) in negotiation order: per-priority FIFO buckets
// plus a submission-order list for the starvation guard's oldest pick.
// Under a fair-share policy it also holds the owner's tenant handle,
// resolved when the queue is made: what the pass prices the owner by, and
// what its jobs' starts and usage flows are accounted to. The static
// policy's shared queue has none.
type ownerQueue struct {
	tenant *fairshare.Tenant
	prios  []int // distinct priorities seen, sorted desc
	byPrio map[int]*qlist
	sub    qlist
	count  int // valid entries (one per idle job filed here)
}

// add files j under its current priority. Submissions arrive in
// (submitTime, id) order, so bucket and submission lists stay sorted by
// appending.
func (q *ownerQueue) add(j *job) {
	q.bucket(j.priority).push(qentry{j: j, gen: j.qgen})
	q.sub.push(qentry{j: j, gen: -1})
	q.count++
}

// refile moves an idle job to a new priority bucket after SetPriority:
// the old entry is invalidated by the qgen bump and the job is inserted
// into the new bucket at its (submitTime, id) rank, since mid-life
// priority changes arrive out of submission order.
func (q *ownerQueue) refile(j *job) {
	j.qgen++
	b := q.bucket(j.priority)
	b.gcHead()
	items := b.items
	i := b.head + sort.Search(len(items)-b.head, func(k int) bool {
		o := items[b.head+k].j
		if o.submitted != j.submitted {
			return o.submitted > j.submitted
		}
		return o.id > j.id
	})
	items = append(items, qentry{})
	copy(items[i+1:], items[i:])
	items[i] = qentry{j: j, gen: j.qgen}
	b.items = items
}

func (q *ownerQueue) bucket(prio int) *qlist {
	b, ok := q.byPrio[prio]
	if !ok {
		b = &qlist{}
		q.byPrio[prio] = b
		i := sort.Search(len(q.prios), func(k int) bool { return q.prios[k] < prio })
		q.prios = append(q.prios, 0)
		copy(q.prios[i+1:], q.prios[i:])
		q.prios[i] = prio
	}
	return b
}

// oldest returns the owner's oldest valid idle job (submission order),
// or nil.
func (q *ownerQueue) oldest() *job {
	q.sub.gcHead()
	for k := q.sub.head; k < len(q.sub.items); k++ {
		if q.sub.items[k].valid() {
			return q.sub.items[k].j
		}
	}
	return nil
}

// ownerCursor walks one owner's buckets in (priority desc, FIFO) order,
// skipping stale entries and at most one already-offered job (the
// starvation guard's phase-a pick).
type ownerCursor struct {
	q    *ownerQueue
	ep   float64
	skip *job
	pi   int // index into q.prios
	idx  int // index into current bucket, counted from items[0]
	cur  *job
}

// advance moves cur to the next valid job, or nil when exhausted.
func (c *ownerCursor) advance() {
	c.cur = nil
	for c.pi < len(c.q.prios) {
		b := c.q.byPrio[c.q.prios[c.pi]]
		b.gcHead()
		if c.idx < b.head {
			c.idx = b.head
		}
		for c.idx < len(b.items) {
			e := b.items[c.idx]
			c.idx++
			if !e.valid() || e.j == c.skip {
				continue
			}
			c.cur = e.j
			return
		}
		c.pi++
		c.idx = 0
	}
}

// cursorHeap orders owner cursors by the head job each would yield
// next, exactly as fairshare.LessKeys orders non-starved jobs: owner
// effective priority desc, then the job's static key. Seq uniqueness
// makes the order total, so the merged stream is deterministic.
type cursorHeap []*ownerCursor

func (h cursorHeap) Len() int { return len(h) }
func (h cursorHeap) Less(a, b int) bool {
	x, y := h[a], h[b]
	if x.ep != y.ep {
		return x.ep > y.ep
	}
	if x.cur.priority != y.cur.priority {
		return x.cur.priority > y.cur.priority
	}
	if x.cur.submitted != y.cur.submitted {
		return x.cur.submitted < y.cur.submitted
	}
	return x.cur.id < y.cur.id
}
func (h cursorHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *cursorHeap) Push(x any)   { *h = append(*h, x.(*ownerCursor)) }
func (h *cursorHeap) Pop() any {
	old := *h
	n := len(old) - 1
	c := old[n]
	old[n] = nil
	*h = old[:n]
	return c
}

// negotiationStream yields idle jobs in negotiation order without
// sorting them: phase (a) offers each starved owner's oldest job in
// FIFO order, phase (b) merges the per-owner static streams by
// owner-level standing. Jobs that start mid-stream invalidate their
// entries, so the stream and the queue stay consistent while the
// caller matches.
type negotiationStream struct {
	starved []*job
	si      int
	heap    cursorHeap
}

// next returns the next idle job to offer a machine, or nil when the
// queue is exhausted.
func (s *negotiationStream) next() *job {
	for s.si < len(s.starved) {
		j := s.starved[s.si]
		s.si++
		if j.status == StatusIdle {
			return j
		}
	}
	for len(s.heap) > 0 {
		c := s.heap[0]
		j := c.cur
		c.advance()
		if c.cur != nil {
			heap.Fix(&s.heap, 0)
		} else {
			heap.Pop(&s.heap)
		}
		if j.status == StatusIdle {
			return j
		}
	}
	return nil
}

// queue returns the queue a job of owner files under, made on first
// use: the owner's own, holding its tenant handle, when a fair-share policy
// is installed; the one shared queue under the static policy.
func (p *Pool) queue(owner string) *ownerQueue {
	if p.fair == nil {
		owner = ""
	}
	q, ok := p.owners[owner]
	if !ok {
		q = &ownerQueue{byPrio: make(map[int]*qlist)}
		if p.fair != nil {
			q.tenant = p.fair.Tenant(owner)
		}
		p.owners[owner] = q
		p.queues = append(p.queues, q)
	}
	return q
}

// negotiationStream builds the pass's job stream at the given
// instant. One SortKeysAt call over each owner's oldest job prices the
// whole pass: it yields every owner's effective priority and marks the
// starved picks, which a full-queue SortKeysAt would mark identically
// (an owner's oldest job is starved iff any of its jobs is, and the
// guard promotes exactly the oldest).
func (p *Pool) negotiationStream(now time.Time) *negotiationStream {
	s := &p.streamScratch
	s.starved, s.si, s.heap = s.starved[:0], 0, s.heap[:0]
	if p.fair == nil {
		// Static policy: single shared queue, priority desc then ID asc
		// (submission order within a bucket), no owner-level standing.
		if len(p.queues) == 1 && p.queues[0].count > 0 {
			q := p.queues[0]
			cursors := append(p.curScratch[:0], ownerCursor{q: q})
			p.curScratch = cursors[:0]
			c := &cursors[0]
			c.advance()
			if c.cur != nil {
				s.heap = append(s.heap, c)
			}
		}
		return s
	}
	refs := p.refScratch[:0]
	cursors := p.curScratch[:0]
	for _, q := range p.queues {
		if q.count <= 0 {
			continue
		}
		j := q.oldest()
		if j == nil {
			q.count = 0 // lost count to stale entries; resync
			continue
		}
		refs = append(refs, p.jobRef(j))
		cursors = append(cursors, ownerCursor{q: q})
	}
	p.refScratch = refs[:0]
	p.curScratch = cursors[:0]
	if len(refs) == 0 {
		return s
	}
	keys := p.fair.AppendSortKeys(p.keyScratch[:0], now, refs)
	p.keyScratch = keys
	for i := range cursors {
		cursors[i].ep = keys[i].Effective
		if keys[i].Starved {
			j := cursors[i].q.oldest()
			s.starved = append(s.starved, j)
			cursors[i].skip = j
		}
	}
	// Phase (a): starved picks in strict FIFO, as LessKeys orders the
	// starved block.
	slices.SortFunc(s.starved, func(a, b *job) int {
		return cmp.Or(cmp.Compare(a.submitted, b.submitted), cmp.Compare(a.id, b.id))
	})
	for i := range cursors {
		c := &cursors[i]
		c.advance()
		if c.cur != nil {
			s.heap = append(s.heap, c)
		}
	}
	heap.Init(&s.heap)
	return s
}

// idleOrdered returns the idle jobs in negotiation order by
// draining a fresh stream without matching. The returned slice aliases a
// per-pool scratch buffer valid until the next call.
func (p *Pool) idleOrdered() []*job {
	s := p.negotiationStream(p.grid.Engine.Now())
	out := p.idleScratch[:0]
	for j := s.next(); j != nil; j = s.next() {
		out = append(out, j)
	}
	p.idleScratch = out
	return out
}

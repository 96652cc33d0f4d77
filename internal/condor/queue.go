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
// lazily and garbage-collected as bucket heads advance past them. There
// is no submission-order list: each bucket is in (submit time, id) order,
// so an owner's oldest idle job is the earliest of its bucket heads.

// qentry is one queue slot; it is stale once the job left Idle or its
// qgen moved on (priority change re-filed it).
type qentry struct {
	j   *job
	gen int32
}

func (e qentry) valid() bool {
	return e.j.status == StatusIdle && e.gen == e.j.qgen
}

// qlist is one priority's bucket: an append-only FIFO with lazy head
// compaction.
type qlist struct {
	prio  int
	items []qentry
	head  int
}

func (l *qlist) push(e qentry) { l.items = append(l.items, e) }

// gcHead drops exhausted prefixes and stale heads so repeated scans do
// not re-walk dead entries; interior stale entries are skipped by
// cursors and collected when the head reaches them. After it the head,
// if any, is the bucket's oldest idle job.
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

// ownerQueue holds one tenant's idle jobs (or, under the static policy,
// the whole pool's) in negotiation order: one FIFO bucket per priority,
// the buckets sorted by priority, highest first. Under a fair-share
// policy it also holds the tenant's handle, resolved when the queue is
// made: what the pass prices the owner by, and what its jobs' starts and
// usage flows are accounted to. The static policy's shared queue has none.
type ownerQueue struct {
	tenant  *fairshare.Tenant
	buckets []qlist
	count   int // idle jobs filed here, one valid entry each
}

// fifo orders jobs by submission: submit time, then ID.
func fifo(a, b *job) int {
	return cmp.Or(cmp.Compare(a.submitted, b.submitted), cmp.Compare(a.id, b.id))
}

// add files j under its current priority. Submissions arrive in
// (submitTime, id) order, so buckets stay sorted by appending.
func (q *ownerQueue) add(j *job) {
	q.bucket(j.priority).push(qentry{j: j, gen: j.qgen})
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
	i := b.head + sort.Search(len(b.items)-b.head, func(k int) bool { return fifo(j, b.items[b.head+k].j) < 0 })
	b.items = slices.Insert(b.items, i, qentry{j: j, gen: j.qgen})
}

// bucket returns prio's bucket, made on first use.
func (q *ownerQueue) bucket(prio int) *qlist {
	i, ok := slices.BinarySearchFunc(q.buckets, prio, func(b qlist, prio int) int { return cmp.Compare(prio, b.prio) })
	if !ok {
		q.buckets = slices.Insert(q.buckets, i, qlist{prio: prio})
	}
	return &q.buckets[i]
}

// oldest returns the owner's oldest idle job, the earliest of the bucket
// heads, or nil.
func (q *ownerQueue) oldest() *job {
	var old *job
	for i := range q.buckets {
		b := &q.buckets[i]
		b.gcHead()
		if b.head < len(b.items) {
			if j := b.items[b.head].j; old == nil || fifo(j, old) < 0 {
				old = j
			}
		}
	}
	return old
}

// ownerCursor walks one owner's buckets in (priority desc, FIFO) order,
// skipping stale entries and at most one already-offered job (the
// starvation guard's phase-a pick).
type ownerCursor struct {
	q    *ownerQueue
	ep   float64
	skip *job
	pi   int // index into q.buckets
	idx  int // index into current bucket, counted from items[0]
	cur  *job
}

// advance moves cur to the next valid job, or nil when exhausted.
func (c *ownerCursor) advance() {
	c.cur = nil
	for c.pi < len(c.q.buckets) {
		b := &c.q.buckets[c.pi]
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
// use: under a fair-share policy the queue of the owner's tenant, holding
// its handle (an empty owner is fairshare.Anonymous, so the two share
// one); under the static policy the one shared queue.
func (p *Pool) queue(owner string) *ownerQueue {
	switch {
	case p.fair == nil:
		owner = ""
	case owner == "":
		owner = fairshare.Anonymous
	}
	q, ok := p.owners[owner]
	if !ok {
		q = &ownerQueue{}
		if p.fair != nil {
			q.tenant = p.fair.Tenant(owner)
		}
		p.owners[owner] = q
		p.queues = append(p.queues, q)
	}
	return q
}

// negotiationStream builds the pass's job stream at the given instant.
// Under a fair-share policy each tenant with an idle job is priced once,
// through its handle, at that instant; its oldest job is looked up only
// when the tenant has gone a starvation window without a start, and
// promoted when it is starved, which is when any of the tenant's jobs is.
func (p *Pool) negotiationStream(now time.Time) *negotiationStream {
	s := &p.streamScratch
	s.starved, s.si, s.heap = s.starved[:0], 0, s.heap[:0]
	cursors := p.curScratch[:0]
	for _, q := range p.queues {
		if q.count == 0 {
			continue
		}
		c := ownerCursor{q: q}
		if p.fair != nil {
			st := p.fair.StandingAt(q.tenant, now)
			c.ep = st.Effective
			if st.Drought() {
				if j := q.oldest(); st.Starved(p.timeOf(j.submitted)) {
					s.starved = append(s.starved, j)
					c.skip = j
				}
			}
		}
		cursors = append(cursors, c)
	}
	p.curScratch = cursors[:0]
	// Phase (a): starved picks in strict FIFO, as LessKeys orders the
	// starved block.
	slices.SortFunc(s.starved, fifo)
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

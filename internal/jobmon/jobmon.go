// Package jobmon implements the paper's Job Monitoring Service (§5): the
// service that "provides the facility of monitoring jobs that have been
// submitted for execution, and provides the job monitoring information to
// the Steering Service".
//
// The paper's four components map directly onto this package:
//
//   - Job Information Collector (Collector): watches execution services,
//     forwards terminal-state snapshots to the DBManager, and answers
//     live queries for running jobs;
//   - DBManager: the per-instance repository of finished-job records,
//     which "publishes the job monitoring information to MonALISA". It is
//     held in memory only: the pool keeps every finished job and the
//     durable store snapshots the pool, so after a restart the same
//     queries fall through to the collector and answer the same;
//   - JMManager (Manager): routes queries — database first, live
//     collector second — exactly the paper's flow ("It first queries the
//     DBManager and if the information is not found in its repository,
//     the request is forwarded to the Job Information Collector");
//   - JMExecutable (Methods): the XML-RPC facade hosted on Clarens that
//     the Steering Service and clients call.
//
// The exposed per-job fields are the paper's list: job status, remaining
// time, elapsed time, estimated run time, queue position, priority,
// submission time, execution time, completion time, CPU time used, input
// and output I/O, owner name and environment variables.
package jobmon

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/condor"
	"repro/internal/monalisa"
	"repro/internal/simgrid"
)

// DBManager stores finished-job records and publishes updates to
// MonALISA.
type DBManager struct {
	repo *monalisa.Repository // optional

	mu      sync.RWMutex
	records map[string]condor.JobInfo
}

// NewDBManager creates a DBManager publishing to repo (nil disables
// publication).
func NewDBManager(repo *monalisa.Repository) *DBManager {
	return &DBManager{repo: repo, records: make(map[string]condor.JobInfo)}
}

func recordKey(pool string, id int) string { return fmt.Sprintf("%s/%d", pool, id) }

// Store saves a job's (usually terminal) snapshot and publishes the
// update to MonALISA.
func (db *DBManager) Store(info condor.JobInfo) {
	db.mu.Lock()
	db.records[recordKey(info.Pool, info.ID)] = info
	db.mu.Unlock()
	if db.repo != nil {
		src := monalisa.FormatJobSource(info.Pool, info.ID)
		db.repo.PublishEvent(info.CompletionTime, src, "status", info.Status.String())
		db.repo.Publish(src, monalisa.MetricJobProgress, info.CompletionTime, info.Progress)
	}
}

// Lookup fetches a stored record.
func (db *DBManager) Lookup(pool string, id int) (condor.JobInfo, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	info, ok := db.records[recordKey(pool, id)]
	return info, ok
}

// Len returns the stored record count.
func (db *DBManager) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.records)
}

// Collector is the Job Information Collector: it subscribes to execution
// services, harvests terminal snapshots into the DBManager, publishes
// state transitions to MonALISA, and serves live job queries.
type Collector struct {
	db   *DBManager
	repo *monalisa.Repository // optional

	mu     sync.Mutex
	pools  map[string]*condor.Pool
	events []condor.Event
	// notify, when set, is called after an event is queued so the owning
	// service can request an engine wakeup to drain it.
	notify func()
}

// NewCollector creates a collector backed by db.
func NewCollector(db *DBManager, repo *monalisa.Repository) *Collector {
	return &Collector{db: db, repo: repo, pools: make(map[string]*condor.Pool)}
}

// Watch subscribes the collector to an execution service's events. A
// transition that leaves the job live is published to MonALISA as it
// happens — the repository's event log is bounded, a backlog here is not —
// and only a terminal one, whose snapshot needs the pool, waits for Drain.
func (c *Collector) Watch(pool *condor.Pool) {
	c.mu.Lock()
	c.pools[pool.Name] = pool
	c.mu.Unlock()
	pool.Subscribe(func(e condor.Event) {
		if !e.To.Terminal() {
			c.publish(e)
			return
		}
		c.mu.Lock()
		c.events = append(c.events, e)
		notify := c.notify
		c.mu.Unlock()
		if notify != nil {
			notify()
		}
	})
}

// publish sends one transition to MonALISA ("sends an update to MonALISA
// whenever the state of a job changes").
func (c *Collector) publish(e condor.Event) {
	if c.repo != nil {
		src := monalisa.FormatJobSource(e.Pool, e.JobID)
		c.repo.PublishEvent(e.At, src, "status", fmt.Sprintf("%v->%v", e.From, e.To))
	}
}

// Pools returns the watched execution service names, sorted.
func (c *Collector) Pools() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.pools))
	for name := range c.pools {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Pool returns a watched pool by name.
func (c *Collector) Pool(name string) (*condor.Pool, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.pools[name]
	return p, ok
}

// Drain flushes the queued terminal transitions: each is published to
// MonALISA and stores the job's final snapshot in the DBManager.
func (c *Collector) Drain() {
	c.mu.Lock()
	events := c.events
	c.events = nil
	pools := make(map[string]*condor.Pool, len(c.pools))
	for k, v := range c.pools {
		pools[k] = v
	}
	c.mu.Unlock()

	for _, e := range events {
		c.publish(e)
		pool := pools[e.Pool]
		if pool == nil {
			continue
		}
		info, err := pool.Job(e.JobID)
		if err != nil {
			continue // service down; the record stays live-only
		}
		c.db.Store(info)
	}
}

// Live fetches the current snapshot straight from the execution service.
func (c *Collector) Live(pool string, id int) (condor.JobInfo, error) {
	p, ok := c.Pool(pool)
	if !ok {
		return condor.JobInfo{}, fmt.Errorf("jobmon: unknown execution service %q", pool)
	}
	return p.Job(id)
}

// Manager is the JMManager: it serves queries from the DBManager first and
// falls back to the live collector.
type Manager struct {
	DB        *DBManager
	Collector *Collector
}

// NewManager wires the manager's two sources.
func NewManager(db *DBManager, col *Collector) *Manager {
	return &Manager{DB: db, Collector: col}
}

// Get resolves a job's monitoring information: stored record first, then
// live query.
func (m *Manager) Get(pool string, id int) (condor.JobInfo, error) {
	if info, ok := m.DB.Lookup(pool, id); ok {
		return info, nil
	}
	return m.Collector.Live(pool, id)
}

// List returns every job the pool holds: the pool keeps its terminal
// jobs, so its own table is the whole list and the repository is not
// consulted.
func (m *Manager) List(pool string) ([]condor.JobInfo, error) {
	p, ok := m.Collector.Pool(pool)
	if !ok {
		return nil, fmt.Errorf("jobmon: unknown execution service %q", pool)
	}
	live, err := p.Jobs()
	if err != nil {
		return nil, err
	}
	return live, nil
}

// Service is the complete Job Monitoring Service instance.
type Service struct {
	DB        *DBManager
	Collector *Collector
	Manager   *Manager
	// PollInterval controls how often running-job progress is published
	// to MonALISA. It is re-read at every poll, so changes apply from the
	// next one.
	PollInterval time.Duration

	drainWake *simgrid.Wake
	repo      *monalisa.Repository
}

// NewService assembles a Job Monitoring Service and registers it with the
// grid engine. The service is event-driven: a pool transition wakes its
// collector at the next legal boundary (this one, when the collector's
// turn is still ahead), and running-job progress publication runs on a
// PollInterval poller.
func NewService(grid *simgrid.Grid, repo *monalisa.Repository) *Service {
	db := NewDBManager(repo)
	col := NewCollector(db, repo)
	s := &Service{
		DB:           db,
		Collector:    col,
		Manager:      NewManager(db, col),
		PollInterval: 5 * time.Second,
		repo:         repo,
	}
	s.drainWake = grid.Engine.Register(func(time.Time) { s.Collector.Drain() })
	col.notify = func() { s.drainWake.Request(grid.Engine.Now()) }
	if repo != nil {
		// Registered after the drain wake, so a poll landing on the same
		// boundary as queued events publishes post-drain state.
		grid.Engine.NewPoller(func() time.Duration { return s.PollInterval }, s.publishProgress)
	}
	return s
}

// Watch attaches an execution service.
func (s *Service) Watch(pool *condor.Pool) { s.Collector.Watch(pool) }

// publishProgress publishes running-job progress and queue depths to
// MonALISA; the engine's Poller invokes it on the PollInterval cadence.
// Both are about live jobs, so it snapshots those, not all the pool held.
func (s *Service) publishProgress(now time.Time) {
	s.Collector.Drain()
	for _, name := range s.Collector.Pools() {
		pool, ok := s.Collector.Pool(name)
		if !ok {
			continue
		}
		jobs, err := pool.LiveJobs()
		if err != nil {
			continue
		}
		queued := 0
		for _, j := range jobs {
			switch j.Status {
			case condor.StatusRunning:
				src := monalisa.FormatJobSource(j.Pool, j.ID)
				s.repo.Publish(src, monalisa.MetricJobProgress, now, j.Progress)
			case condor.StatusIdle:
				queued++
			}
		}
		s.repo.Publish(name, monalisa.MetricQueuedJobs, now, float64(queued))
	}
}

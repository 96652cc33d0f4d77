// Package jobmon implements the paper's Job Monitoring Service (§5): the
// service that "provides the facility of monitoring jobs that have been
// submitted for execution, and provides the job monitoring information to
// the Steering Service".
//
// The paper's four components are one type, Service:
//
//   - Job Information Collector: Watch subscribes to an execution
//     service; a transition that leaves the job live is published to
//     MonALISA as it happens, and a terminal one waits for Drain, which
//     forwards the job's final snapshot to the records;
//   - DBManager: the records — finished-job snapshots keyed by (pool, id)
//     — and their publication ("publishes the job monitoring information
//     to MonALISA"). They are held in memory only: the pool keeps every
//     finished job and the durable store snapshots the pool, so after a
//     restart the same queries fall through to the pool and answer the
//     same;
//   - JMManager: Job answers from the records first and the pool second,
//     exactly the paper's flow ("It first queries the DBManager and if the
//     information is not found in its repository, the request is
//     forwarded to the Job Information Collector"); List is the pool's
//     own table, which holds its finished jobs too;
//   - JMExecutable: API, the XML-RPC facade hosted on Clarens that the
//     Steering Service and clients call.
//
// The exposed per-job fields are the paper's list: job status, remaining
// time, elapsed time, estimated run time, queue position, priority,
// submission time, execution time, completion time, CPU time used, input
// and output I/O, owner name and environment variables.
package jobmon

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/condor"
	"repro/internal/monalisa"
	"repro/internal/simgrid"
)

// jobKey names a job across execution services.
type jobKey struct {
	pool string
	id   int
}

// pollInterval is how often running-job progress is published to
// MonALISA.
const pollInterval = 5 * time.Second

// Service is the complete Job Monitoring Service instance.
type Service struct {
	engine    *simgrid.Engine
	drainWake *simgrid.Wake
	repo      *monalisa.Repository // nil disables publication

	pools   map[string]*condor.Pool
	records map[jobKey]condor.JobInfo
	events  []condor.Event // terminal transitions awaiting Drain
}

// NewService assembles a Job Monitoring Service publishing to repo (nil
// disables publication) and registers it with the grid engine. The
// service is event-driven: a terminal transition wakes it at the next
// legal boundary (this one, when its turn is still ahead) to Drain, and
// running-job progress publication runs on a pollInterval poller.
func NewService(grid *simgrid.Grid, repo *monalisa.Repository) *Service {
	s := &Service{
		engine:  grid.Engine,
		repo:    repo,
		pools:   make(map[string]*condor.Pool),
		records: make(map[jobKey]condor.JobInfo),
	}
	s.drainWake = grid.Engine.Register(func(time.Time) { s.Drain() })
	if repo != nil {
		// Registered after the drain wake, so a poll landing on the same
		// boundary as queued events publishes post-drain state.
		grid.Engine.NewPoller(func() time.Duration { return pollInterval }, s.publishProgress)
	}
	return s
}

// Watch subscribes the service to an execution service's events. A
// transition that leaves the job live is published to MonALISA as it
// happens — the repository's event log is bounded, a backlog here is not —
// and only a terminal one, whose snapshot needs the pool, waits for Drain.
func (s *Service) Watch(pool *condor.Pool) {
	s.pools[pool.Name] = pool
	pool.Subscribe(func(e condor.Event) {
		if !e.To.Terminal() {
			s.publish(e)
			return
		}
		s.events = append(s.events, e)
		s.drainWake.Request(s.engine.Now())
	})
}

// publish sends one transition to MonALISA ("sends an update to MonALISA
// whenever the state of a job changes").
func (s *Service) publish(e condor.Event) {
	if s.repo != nil {
		src := monalisa.FormatJobSource(e.Pool, e.JobID)
		s.repo.PublishEvent(e.At, src, "status", transition(e.From, e.To))
	}
}

// transitions holds the text publish sends for every pair of statuses a
// job has, made once so that no transition formats its own copy.
var transitions = func() (t [condor.StatusRemoved + 1][condor.StatusRemoved + 1]string) {
	for from := range t {
		for to := range t[from] {
			t[from][to] = fmt.Sprintf("%v->%v", condor.Status(from), condor.Status(to))
		}
	}
	return t
}()

// transition returns "from->to", each status as its String.
func transition(from, to condor.Status) string {
	if int(from) < len(transitions) && int(to) < len(transitions) {
		return transitions[from][to]
	}
	return fmt.Sprintf("%v->%v", from, to)
}

// Pools returns the watched execution service names, sorted.
func (s *Service) Pools() []string {
	out := make([]string, 0, len(s.pools))
	for name := range s.pools {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// pool returns a watched execution service by name.
func (s *Service) pool(name string) (*condor.Pool, error) {
	p, ok := s.pools[name]
	if !ok {
		return nil, fmt.Errorf("jobmon: unknown execution service %q", name)
	}
	return p, nil
}

// Drain flushes the queued terminal transitions: each is published to
// MonALISA, and the job's final snapshot is stored in the records and
// published there.
func (s *Service) Drain() {
	events := s.events
	s.events = nil
	for _, e := range events {
		s.publish(e)
		pool, err := s.pool(e.Pool)
		if err != nil {
			continue
		}
		info, err := pool.Job(e.JobID)
		if err != nil {
			continue // service down; the record stays live-only
		}
		s.records[jobKey{pool: info.Pool, id: info.ID}] = info
		if s.repo != nil {
			src := monalisa.FormatJobSource(info.Pool, info.ID)
			s.repo.PublishEvent(info.CompletionTime, src, "status", info.Status.String())
			s.repo.Publish(src, monalisa.MetricJobProgress, info.CompletionTime, info.Progress)
		}
	}
}

// Job resolves a job's monitoring information: the stored record first,
// then the execution service.
func (s *Service) Job(pool string, id int) (condor.JobInfo, error) {
	if info, stored := s.records[jobKey{pool: pool, id: id}]; stored {
		return info, nil
	}
	p, err := s.pool(pool)
	if err != nil {
		return condor.JobInfo{}, err
	}
	return p.Job(id)
}

// List returns every job the pool holds: the pool keeps its terminal
// jobs, so its own table is the whole list and the records are not
// consulted.
func (s *Service) List(pool string) ([]condor.JobInfo, error) {
	p, err := s.pool(pool)
	if err != nil {
		return nil, err
	}
	return p.Jobs()
}

// publishProgress publishes running-job progress and queue depths to
// MonALISA; the engine's Poller invokes it on the pollInterval cadence.
// Both are about live jobs, so it snapshots those, not all the pool held.
func (s *Service) publishProgress(now time.Time) {
	s.Drain()
	for _, name := range s.Pools() {
		pool, err := s.pool(name)
		if err != nil {
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

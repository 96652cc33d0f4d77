package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
)

// ErrDrainTimeout reports a graceful drain that exceeded Server.DrainTimeout.
// The process must exit nonzero: the final checkpoint may not have landed,
// so the next start recovers from the journal instead.
var ErrDrainTimeout = errors.New("drain deadline exceeded")

// Server runs a GAE deployment as a long-lived service: it recovers
// state from a durable data directory at start, drives the simulation in
// real time, checkpoints periodically, and shuts down gracefully —
// drain the Clarens endpoint, take a final checkpoint, release the
// store — when Shutdown is called (the signal handler's hook).
type Server struct {
	G *core.GAE

	// Accel is simulated seconds advanced per wall-clock second (at
	// least 1; NewServer sets 1).
	Accel int
	// CheckpointEvery is the wall-clock period between checkpoints
	// (0 disables periodic checkpoints; the final one still runs).
	CheckpointEvery time.Duration
	// Logf receives progress lines (nil silences them).
	Logf func(format string, args ...any)
	// DrainTimeout bounds the graceful drain (endpoint stop + final
	// checkpoint). When it expires Run returns ErrDrainTimeout so main
	// can force-exit nonzero instead of hanging on a wedged drain.
	// 0 means unbounded.
	DrainTimeout time.Duration

	store    *durable.Store
	stop     chan struct{}
	stopOnce sync.Once

	// drainBarrier, when non-nil, runs at the head of the drain
	// goroutine — a test hook that simulates a drain wedged behind a
	// stuck checkpoint.
	drainBarrier func()
}

// NewServer builds a server around g. A non-empty dataDir opens (or
// creates) the durable store there and recovers its contents into g
// before any traffic is served; an empty dataDir runs in-memory.
func NewServer(g *core.GAE, dataDir string) (*Server, error) {
	s := &Server{G: g, Accel: 1, stop: make(chan struct{})}
	if dataDir == "" {
		return s, nil
	}
	store, err := durable.Open(dataDir)
	if err != nil {
		return nil, err
	}
	if warn := store.ScanWarning(); warn != nil {
		s.logf("journal recovered to last valid record: %v", warn)
	}
	if err := g.AttachStore(store); err != nil {
		store.Close()
		return nil, fmt.Errorf("recovering %s: %w", dataDir, err)
	}
	s.store = store
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// Start serves the Clarens endpoint on addr and returns its base URL.
func (s *Server) Start(addr string) (string, error) {
	return s.G.Start(addr)
}

// InjectFaults interposes a scriptable FaultyFile on the journal's
// write path (nil without a durable store). It must run before Start —
// the swap is not safe under concurrent appends; the returned handle is.
func (s *Server) InjectFaults() *durable.FaultyFile {
	if s.store == nil {
		return nil
	}
	return s.store.InjectFaults()
}

// Run drives the simulation until Shutdown, then drains: the Clarens
// endpoint stops accepting calls and finishes in-flight ones, a final
// checkpoint captures the drained state, and the store is released.
// It returns nil on a clean shutdown.
func (s *Server) Run() error {
	advance := time.NewTicker(time.Second)
	defer advance.Stop()
	var checkpoint <-chan time.Time
	if s.store != nil && s.CheckpointEvery > 0 {
		t := time.NewTicker(s.CheckpointEvery)
		defer t.Stop()
		checkpoint = t.C
	}
	for {
		select {
		case <-advance.C:
			s.G.Run(time.Duration(s.Accel) * time.Second)
		case <-checkpoint:
			if err := s.G.Checkpoint(); err != nil {
				return fmt.Errorf("checkpoint: %w", err)
			}
			s.logf("checkpoint at simulated %v", s.G.Now().Format(time.RFC3339))
		case <-s.stop:
			return s.drainBounded()
		}
	}
}

// drainBounded runs drain under DrainTimeout. New RPCs are rejected
// with FaultUnavailable (retryable — clients back off to another
// attempt or endpoint) the moment draining starts.
func (s *Server) drainBounded() error {
	s.G.Clarens.SetDraining(true)
	if s.DrainTimeout <= 0 && s.drainBarrier == nil {
		return s.drain()
	}
	done := make(chan error, 1)
	go func() {
		if s.drainBarrier != nil {
			s.drainBarrier()
		}
		done <- s.drain()
	}()
	var deadline <-chan time.Time
	if s.DrainTimeout > 0 {
		t := time.NewTimer(s.DrainTimeout)
		defer t.Stop()
		deadline = t.C
	}
	select {
	case err := <-done:
		return err
	case <-deadline:
		return fmt.Errorf("%w after %v", ErrDrainTimeout, s.DrainTimeout)
	}
}

// Shutdown asks Run to exit gracefully. Safe to call more than once and
// from any goroutine — it is the SIGINT/SIGTERM hook.
func (s *Server) Shutdown() {
	s.stopOnce.Do(func() { close(s.stop) })
}

func (s *Server) drain() error {
	s.logf("draining (simulated time %v)", s.G.Now().Format(time.RFC3339))
	if err := s.G.Stop(); err != nil {
		return fmt.Errorf("stopping endpoint: %w", err)
	}
	if s.store == nil {
		return nil
	}
	if err := s.G.Checkpoint(); err != nil {
		return fmt.Errorf("final checkpoint: %w", err)
	}
	if err := s.store.Close(); err != nil {
		return fmt.Errorf("closing store: %w", err)
	}
	s.logf("state checkpointed; goodbye")
	return nil
}

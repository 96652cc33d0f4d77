package chaos

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"
)

// deployment is what every launched gae-server runs: two sites joined by
// a link (a move with no target needs a second site to land on), the
// harness user as its administrator, and a checkpoint every second.
var deployment = []string{
	"-sites", "siteA:2:0.0:0.1,siteB:2:0.0:0.1",
	"-links", "siteA-siteB:10:5",
	"-users", user + ":" + pass + ":1000000",
	"-checkpoint", "1s",
	"-drain-timeout", "5s",
}

const (
	// faultAfter is how long after its start a faulted lifetime arms the
	// journal fault, so the fault lands while mutations are in flight.
	faultAfter = 25 * time.Millisecond
	// durabilityLost is gae-server's exit status once a journal write
	// fails: it exits without a drain so recovery rolls the write back.
	durabilityLost = 3
)

// Server is a gae-server child on a pinned loopback port over a scratch
// data directory: the one launcher the harness commands use. It is a
// Deployment: Kill is SIGKILL, Start relaunches on the same port and
// directory.
type Server struct {
	ctx     context.Context
	fail    func(error)
	bin     string
	scratch string
	data    string
	addr    string

	mu           sync.Mutex
	cmd          *exec.Cmd
	done         chan struct{} // closed once cmd has been reaped
	faultLives   int           // lifetimes left that arm the journal fault
	faultCrashes int
}

// StartServer builds gae-server unless bin names a binary, pins a
// loopback port and starts the server on a fresh data directory,
// returning once it answers /healthz. Its first faultLives lifetimes arm
// the journal fault (gae-server -fault-fsync-after): the next journal
// write is torn and fails, and the server exits durabilityLost. Such a
// crash is restarted; any other exit Kill did not cause calls fail, and
// so ends the run. Close kills the server and removes its directory.
func StartServer(ctx context.Context, bin string, faultLives int, fail func(error)) (*Server, error) {
	scratch, err := os.MkdirTemp("", "gae-server-")
	if err != nil {
		return nil, err
	}
	s := &Server{ctx: ctx, fail: fail, bin: bin, scratch: scratch,
		data: filepath.Join(scratch, "data"), faultLives: faultLives}
	if err := s.boot(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// boot makes the data directory, builds the binary if need be, pins the
// port and starts the first lifetime.
func (s *Server) boot() error {
	if err := os.Mkdir(s.data, 0o755); err != nil {
		return err
	}
	if s.bin == "" {
		// A real binary: `go run` would put the server a process group
		// away and orphan it when the wrapper is killed.
		s.bin = filepath.Join(s.scratch, "gae-server")
		build := exec.CommandContext(s.ctx, "go", "build", "-o", s.bin, "./cmd/gae-server")
		build.Stderr = os.Stderr
		if err := build.Run(); err != nil {
			return fmt.Errorf("building gae-server: %w", err)
		}
	}
	// Pin a port up front so restarts come back at the same endpoint.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.addr = l.Addr().String()
	l.Close()
	return s.Start()
}

// URL is the server's endpoint.
func (s *Server) URL() string { return "http://" + s.addr }

// Start launches a lifetime and waits until it answers /healthz.
func (s *Server) Start() error {
	s.mu.Lock()
	err := s.launch()
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return waitHealthy(s.ctx, s.URL())
}

// launch starts one lifetime of the child; s.mu is held.
func (s *Server) launch() error {
	args := append([]string{"-addr", s.addr, "-data", s.data}, deployment...)
	armed := s.faultLives > 0
	if armed {
		s.faultLives--
		args = append(args, "-fault-fsync-after", faultAfter.String())
	}
	cmd := exec.Command(s.bin, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting gae-server: %w", err)
	}
	s.cmd, s.done = cmd, make(chan struct{})
	go s.watch(cmd, s.done, armed)
	return nil
}

// watch reaps a lifetime. An exit Kill did not cause restarts the server
// if it is the armed fault's crash and fails the run otherwise.
func (s *Server) watch(cmd *exec.Cmd, done chan struct{}, armed bool) {
	exit := cmd.Wait()
	close(done)
	var failure error
	s.mu.Lock()
	// Kill clears s.cmd before it signals; at the end of a run nothing
	// restarts.
	if s.cmd == cmd && s.ctx.Err() == nil {
		s.cmd = nil
		if faultCrash(armed, cmd.ProcessState.ExitCode()) {
			s.faultCrashes++
			if err := s.launch(); err != nil {
				failure = fmt.Errorf("restarting gae-server after its fault crash: %w", err)
			}
		} else {
			failure = fmt.Errorf("gae-server exited on its own (fault armed: %v): %v", armed, exit)
		}
	}
	s.mu.Unlock()
	if failure != nil {
		s.fail(failure)
	}
}

// faultCrash reports whether a lifetime's own exit is the one the
// harness restarts: the lifetime armed the journal fault and the server
// exited with the durability-lost status. A panic (status 2), a signal,
// a clean exit, or any exit of a lifetime that armed nothing is a crash
// the fault cannot explain.
func faultCrash(armed bool, status int) bool {
	return armed && status == durabilityLost
}

// FaultCrashes counts the lifetimes the armed fault crashed.
func (s *Server) FaultCrashes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.faultCrashes
}

// Kill is the crash: SIGKILL, no drain, no final checkpoint — recovery
// must come from the snapshot plus the journal tail.
func (s *Server) Kill() error {
	s.mu.Lock()
	cmd, done := s.cmd, s.done
	s.cmd = nil
	s.mu.Unlock()
	if cmd == nil {
		return errors.New("no gae-server running")
	}
	// A lifetime that just exited on its own is as dead as a killed one.
	if err := cmd.Process.Kill(); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	<-done
	return nil
}

// Close kills the server, if it runs, and removes its directory.
func (s *Server) Close() {
	s.Kill() //nolint:errcheck // nothing running is fine here
	os.RemoveAll(s.scratch)
}

// waitHealthy polls url's /healthz until it answers 200 or ctx ends.
func waitHealthy(ctx context.Context, url string) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if sleep(ctx, 25*time.Millisecond) != nil {
			return fmt.Errorf("%s never answered /healthz: %w", url, context.Cause(ctx))
		}
	}
}

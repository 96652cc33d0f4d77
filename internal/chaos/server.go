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

// harnessFile is the deployment every launched gae-server runs, relative
// to the repository root: two sites joined by a link (a move with no
// target needs a second site to land on) and the harness user as its
// administrator. Each launch also checkpoints every second and bounds
// its drain.
const harnessFile = "testdata/deployments/harness.json"

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
	// deployment is harnessFile's absolute path.
	deployment string

	mu   sync.Mutex
	cmd  *exec.Cmd
	done chan struct{} // closed once cmd has been reaped
}

// StartServer builds gae-server unless bin names a binary, pins a
// loopback port and starts the server on a fresh data directory,
// returning once it answers /healthz. Any exit of the server that Kill
// did not cause calls fail, and so ends the run. Close kills the server
// and removes its directory.
func StartServer(ctx context.Context, bin string, fail func(error)) (*Server, error) {
	scratch, err := os.MkdirTemp("", "gae-server-")
	if err != nil {
		return nil, err
	}
	s := &Server{ctx: ctx, fail: fail, bin: bin, scratch: scratch, data: filepath.Join(scratch, "data")}
	if err := s.boot(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// boot makes the data directory, resolves the deployment file from the
// repository root (the working directory), builds the binary if need be,
// pins the port and starts the first lifetime.
func (s *Server) boot() error {
	if err := os.Mkdir(s.data, 0o755); err != nil {
		return err
	}
	deployment, err := filepath.Abs(harnessFile)
	if err != nil {
		return err
	}
	s.deployment = deployment
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
	cmd := exec.Command(s.bin, "-addr", s.addr, "-data", s.data, "-deployment", s.deployment,
		"-checkpoint", "1s", "-drain-timeout", "5s")
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting gae-server: %w", err)
	}
	s.cmd, s.done = cmd, make(chan struct{})
	go s.watch(cmd, s.done)
	return nil
}

// watch reaps a lifetime and fails the run if the exit is not Kill's.
func (s *Server) watch(cmd *exec.Cmd, done chan struct{}) {
	exit := cmd.Wait()
	defer close(done)
	s.mu.Lock()
	// Kill clears s.cmd before it signals; at the end of a run any exit is
	// expected.
	own := s.cmd == cmd && s.ctx.Err() == nil
	if own {
		s.cmd = nil
	}
	s.mu.Unlock()
	if own {
		s.fail(fmt.Errorf("gae-server exited on its own: %v", exit))
	}
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

// Command gae-chaos is the chaos harness front-end: it drives
// concurrent mutating load through a fault-injecting transport (drops,
// ack losses, duplicate deliveries) against a real gae-server process,
// SIGKILLs and restarts that process mid-load, and then reconciles the
// client-side acked-op log against the recovered server state. It exits
// nonzero unless the exactly-once invariant held: no acked op lost, no
// op applied twice.
//
// By default it builds and looks after its own gae-server on a scratch
// data directory:
//
//	gae-chaos -clients 3 -ops 12 -kills 2
//
// Point it at an externally managed server with -url (kills are then
// disabled: the harness cannot crash a server it does not own).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/pkg/gae"
)

func main() {
	var (
		url     = flag.String("url", "", "externally managed server URL (empty: spawn a gae-server; -kills forced to 0 when set)")
		server  = flag.String("server", "", "prebuilt gae-server binary (empty: go build ./cmd/gae-server)")
		data    = flag.String("data", "", "durable data directory for the spawned server (empty: temp dir)")
		clients = flag.Int("clients", 3, "concurrent client workers")
		ops     = flag.Int("ops", 12, "acked ops each worker must complete")
		kills   = flag.Int("kills", 2, "SIGKILL/restart cycles spread across the run")
		seed    = flag.Int64("seed", 1, "fault-injection random seed")
		drop    = flag.Float64("drop", 0.05, "probability a request is dropped undelivered")
		ackloss = flag.Float64("ackloss", 0.10, "probability a delivered request's response is discarded")
		dup     = flag.Float64("dup", 0.10, "probability a request is delivered twice")
		timeout = flag.Duration("timeout", 2*time.Minute, "overall run deadline")
		out     = flag.String("out", "-", "report destination ('-' = stdout)")

		fsyncAfter = flag.Duration("fault-fsync-after", 25*time.Millisecond,
			"arm journal fsync faults in a spawned server this long after it starts (0 = no fsync faults)")
		fsyncCount = flag.Int("fault-fsync-count", 2,
			"consecutive journal fsyncs to fail per armed fault")
		fsyncLives = flag.Int("fault-lifetimes", 2,
			"number of server lifetimes that get the fsync fault armed (later restarts run clean)")
		shortWrite = flag.Bool("fault-short-write", false,
			"also tear the faulted journal write (short write)")
	)
	flag.Parse()
	log.SetPrefix("gae-chaos: ")
	log.SetFlags(0)

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	cfg := chaos.Config{
		User:    "alice",
		Pass:    "pw",
		Workers: *clients,
		Ops:     *ops,
		Kills:   *kills,
		Faults:  chaos.Faults{Seed: *seed, DropProb: *drop, AckLossProb: *ackloss, DupProb: *dup},
		Nonce:   fmt.Sprintf("chaos-%d-%d", os.Getpid(), time.Now().UnixNano()),
		Retry: gae.RetryPolicy{
			MaxAttempts: 3,
			BaseBackoff: 10 * time.Millisecond,
			MaxBackoff:  200 * time.Millisecond,
			// The harness's own retry-until-acked loop is the availability
			// mechanism; a tripping breaker would only slow it down.
			BreakerThreshold: 1000,
		},
		Logf: log.Printf,
	}

	var sp *serverProc
	if *url != "" {
		cfg.URL = *url
		cfg.Kills = 0
		cfg.Control = chaos.ServerControl{
			Kill:  func() error { return fmt.Errorf("cannot kill an externally managed server") },
			Start: func() (string, error) { return *url, nil },
		}
	} else {
		var err error
		sp, err = newServerProc(ctx, *server, *data)
		if err != nil {
			log.Fatal(err)
		}
		defer sp.cleanup()
		if *fsyncAfter > 0 {
			// The first -fault-lifetimes servers re-arm the fault shortly
			// after start, so fsync failures land while mutations are in
			// flight: the server crashes itself (durability-lost exit) and
			// the watchdog restarts it. Later lifetimes run clean so the
			// run converges instead of crash-looping.
			sp.faultBudget = *fsyncLives
			sp.faultArgs = []string{
				"-fault-fsync-after", fsyncAfter.String(),
				"-fault-fsync-count", fmt.Sprint(*fsyncCount),
			}
			if *shortWrite {
				sp.faultArgs = append(sp.faultArgs, "-fault-short-write")
			}
		}
		u, err := sp.start()
		if err != nil {
			log.Fatal(err)
		}
		cfg.URL = u
		cfg.Control = chaos.ServerControl{Kill: sp.kill, Start: sp.start}
	}

	rep, err := chaos.Run(ctx, cfg)
	if err != nil {
		log.Fatal(err)
	}

	var faultCrashes int64
	if sp != nil {
		faultCrashes = sp.crashes.Load()
	}
	enc, err := json.MarshalIndent(struct {
		*chaos.Report
		FaultCrashes int64 `json:"FaultCrashes"`
		Passed       bool  `json:"Passed"`
	}{rep, faultCrashes, rep.Passed()}, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		log.Fatal(err)
	}
	if !rep.Passed() {
		log.Fatal("FAIL: exactly-once invariant violated")
	}
	log.Printf("PASS: %d ops acked over %d deliveries, %d kills, zero lost, zero double-applied",
		rep.AckedOps, rep.Attempts, rep.Kills)
}

// serverProc looks after a gae-server child: SIGKILL on demand, restart
// on the same pinned address over the same data directory. A watchdog
// also restarts the child when it crashes on its own — which the
// injected fsync faults make it do: a durability-lost server exits
// without draining so recovery can roll the dirty mutation back.
type serverProc struct {
	ctx       context.Context
	bin       string
	data      string
	addr      string
	scratch   string // temp root to remove on exit, if we made one
	faultArgs []string

	crashes atomic.Int64 // self-exits (fault crashes), not scripted kills

	mu          sync.Mutex
	cmd         *exec.Cmd
	done        chan struct{} // closed once sp.cmd has been reaped
	faultBudget int           // lifetimes left that arm the fsync fault
}

func newServerProc(ctx context.Context, bin, data string) (*serverProc, error) {
	sp := &serverProc{ctx: ctx, bin: bin, data: data}
	if sp.bin == "" || sp.data == "" {
		dir, err := os.MkdirTemp("", "gae-chaos-")
		if err != nil {
			return nil, err
		}
		sp.scratch = dir
		if sp.data == "" {
			sp.data = filepath.Join(dir, "data")
			if err := os.Mkdir(sp.data, 0o755); err != nil {
				return nil, err
			}
		}
		if sp.bin == "" {
			// Build a real binary: `go run` would put the server a process
			// group away and orphan it when we SIGKILL the wrapper.
			sp.bin = filepath.Join(dir, "gae-server")
			log.Printf("building %s", sp.bin)
			build := exec.CommandContext(ctx, "go", "build", "-o", sp.bin, "./cmd/gae-server")
			build.Stderr = os.Stderr
			if err := build.Run(); err != nil {
				return nil, fmt.Errorf("building gae-server: %w", err)
			}
		}
	}
	// Pin a port up front so restarts come back at the same endpoint.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sp.addr = l.Addr().String()
	l.Close()
	return sp, nil
}

func (sp *serverProc) start() (string, error) {
	args := []string{
		"-addr", sp.addr,
		"-data", sp.data,
		// Two sites: the workload's targetless move ops need a second
		// site for the scheduler to redirect to.
		"-sites", "siteA:2:0.0:0.1,siteB:2:0.0:0.1",
		"-links", "siteA-siteB:10:5",
		"-users", "alice:pw:1000",
		"-checkpoint", "2s",
		"-drain-timeout", "5s",
	}
	sp.mu.Lock()
	if sp.faultBudget > 0 {
		sp.faultBudget--
		args = append(args, sp.faultArgs...)
	}
	sp.mu.Unlock()
	cmd := exec.Command(sp.bin, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return "", fmt.Errorf("starting gae-server: %w", err)
	}
	done := make(chan struct{})
	sp.mu.Lock()
	sp.cmd, sp.done = cmd, done
	sp.mu.Unlock()
	go sp.watch(cmd, done)
	return "http://" + sp.addr, nil
}

// watch reaps the child and, when it exited on its own rather than via
// kill(), restarts it so the load keeps a server to retry against.
func (sp *serverProc) watch(cmd *exec.Cmd, done chan struct{}) {
	err := cmd.Wait()
	close(done)
	sp.mu.Lock()
	unexpected := sp.cmd == cmd // kill() nils sp.cmd before signalling
	if unexpected {
		sp.cmd = nil
	}
	sp.mu.Unlock()
	if !unexpected || sp.ctx.Err() != nil {
		return
	}
	sp.crashes.Add(1)
	log.Printf("server crashed (%v); watchdog restarting", err)
	if _, err := sp.start(); err != nil {
		log.Printf("watchdog restart failed: %v", err)
	}
}

// kill is the crash: SIGKILL, no drain, no final checkpoint — recovery
// must come from the snapshot plus the journal tail.
func (sp *serverProc) kill() error {
	// A fault crash may have beaten us here: the watchdog nils sp.cmd
	// before relaunching, so wait out that window instead of failing.
	deadline := time.Now().Add(5 * time.Second)
	for {
		sp.mu.Lock()
		cmd, done := sp.cmd, sp.done
		sp.cmd = nil
		sp.mu.Unlock()
		if cmd != nil && cmd.Process != nil {
			if err := cmd.Process.Kill(); err != nil {
				return err
			}
			<-done // reaped by watch; a kill error status is expected
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no server process to kill")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (sp *serverProc) cleanup() {
	sp.kill()
	if sp.scratch != "" {
		os.RemoveAll(sp.scratch)
	}
}

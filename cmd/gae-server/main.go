// Command gae-server hosts a complete Grid Analysis Environment: a
// simulated grid with Condor-like execution services, MonALISA
// monitoring, the Sphinx-like scheduler, and the steering / job
// monitoring / estimator / quota services on a Clarens XML-RPC endpoint.
//
// The deployment — sites, links and users — is a JSON file
// (core.LoadDeployment; see testdata/deployments). The simulated grid
// advances in real time (one simulated second per wall-clock second)
// unless -accel is given.
//
// With -data the server is crash-recoverable: state is restored from the
// directory's snapshot plus journal at start, every mutating RPC is
// journaled before it is acknowledged, checkpoints run periodically, and
// SIGINT/SIGTERM triggers a graceful drain — in-flight calls finish, a
// final checkpoint lands, and the process exits 0.
//
// Example:
//
//	gae-server -addr :8080 -deployment testdata/deployments/quickstart.json
//
// then call its methods with the gae command (gae scheduler.sites), or
// load it with gae load, at http://localhost:8080.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
)

func main() {
	if err := run(os.Args[1:]); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatalf("gae-server: %v", err)
	}
}

// run serves the deployment the arguments name until SIGINT or SIGTERM.
func run(args []string) error {
	fs := flag.NewFlagSet("gae-server", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":8080", "listen address for the Clarens host")
		deployment = fs.String("deployment", "",
			"deployment file: JSON with Sites, Links and Users (required; see testdata/deployments)")
		accel = fs.Int("accel", 1, "simulated seconds per wall-clock second (at least 1)")
		data  = fs.String("data", "",
			"durable state directory (empty = in-memory only)")
		checkpoint = fs.Duration("checkpoint", time.Minute,
			"wall-clock period between checkpoints when -data is set")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second,
			"bound on the graceful drain; past it the server exits nonzero (0 = unbounded)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case fs.NArg() > 0:
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case *deployment == "":
		return errors.New("-deployment is required")
	case *accel < 1:
		return fmt.Errorf("-accel %d is not positive", *accel)
	}
	cfg, err := core.LoadDeployment(*deployment)
	if err != nil {
		return err
	}
	g := core.New(cfg)
	srv, err := NewServer(g, *data)
	if err != nil {
		return err
	}
	if *data != "" {
		// WAL rule: a failed journal append leaves the in-memory state
		// ahead of the durable state — continuing (or checkpointing)
		// would persist a mutation the client was never acked for and
		// will retry. Crash without a drain; recovery replays the
		// journal, rolling the un-journaled mutation back.
		g.OnDurabilityLoss(func(err error) {
			log.Printf("durability lost: %v — exiting for journal recovery", err)
			os.Exit(3)
		})
	}
	srv.Accel = *accel
	srv.CheckpointEvery = *checkpoint
	srv.DrainTimeout = *drainTimeout
	srv.Logf = log.Printf
	url, err := srv.Start(*addr)
	if err != nil {
		return err
	}
	log.Printf("Clarens host listening at %s", url)
	log.Printf("sites: %s", strings.Join(g.Sites(), ", "))
	log.Printf("services: jobmon, steering, estimator, quota, scheduler, replica, monitor, state")
	if *data != "" {
		log.Printf("durable state in %s (simulated time %v)", *data, g.Now().Format(time.RFC3339))
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		srv.Shutdown()
	}()
	return srv.Run()
}

// Command gae-chaos is the chaos harness front-end: it drives
// concurrent mutating load through a fault-injecting transport (drops,
// ack losses, duplicate deliveries) against a real gae-server process,
// SIGKILLs and restarts that process mid-load, and then reconciles the
// client-side acked-op log against the recovered server state. It exits
// nonzero unless the exactly-once invariant held: no acked op lost, no
// op applied twice.
//
// It builds gae-server (or runs the -server binary) on a scratch data
// directory and prints its report to stdout:
//
//	gae-chaos -clients 3 -ops 12 -kills 2
//
// Two server lifetimes also arm a journal fault 25 ms after they start
// (one killed first passes it on): the next journal write is torn, the
// server exits with its durability-lost status, and the harness restarts
// it; the report counts FaultArmed and FaultCrashes. Any other exit of
// the server fails the run, as does a run longer than two minutes.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"log"
	"os"
	"time"

	"repro/internal/chaos"
)

const (
	// faultedLifetimes arm the journal fault; later lifetimes run clean so
	// the run converges instead of crash-looping.
	faultedLifetimes = 2
	runTimeout       = 2 * time.Minute
)

func main() {
	var (
		server  = flag.String("server", "", "prebuilt gae-server binary (empty: go build ./cmd/gae-server)")
		clients = flag.Int("clients", 3, "concurrent client workers")
		ops     = flag.Int("ops", 12, "acked ops each worker must complete")
		kills   = flag.Int("kills", 2, "SIGKILL/restart cycles spread across the run")
	)
	flag.Parse()
	log.SetPrefix("gae-chaos: ")
	log.SetFlags(0)

	if err := run(*server, *clients, *ops, *kills); err != nil {
		log.Fatal(err)
	}
}

func run(server string, clients, ops, kills int) error {
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	ctx, fail := context.WithCancelCause(ctx)
	srv, err := chaos.StartServer(ctx, server, faultedLifetimes, fail)
	if err != nil {
		return err
	}
	defer srv.Close()

	rep, err := chaos.Run(ctx, chaos.Config{
		Server:  srv,
		Workers: clients,
		Ops:     ops,
		Kills:   kills,
		Logf:    log.Printf,
	})
	if err != nil {
		return err
	}
	enc, err := json.MarshalIndent(struct {
		*chaos.Report
		FaultArmed   int  `json:"FaultArmed"`
		FaultCrashes int  `json:"FaultCrashes"`
		Passed       bool `json:"Passed"`
	}{rep, srv.FaultArmed(), srv.FaultCrashes(), rep.Passed()}, "", "  ")
	if err != nil {
		return err
	}
	os.Stdout.Write(append(enc, '\n'))
	if !rep.Passed() {
		return errors.New("FAIL: exactly-once invariant violated")
	}
	log.Printf("PASS: %d ops acked over %d deliveries, %d kills, zero lost, zero double-applied",
		rep.AckedOps, rep.Attempts, rep.Kills)
	return nil
}

// Command gae calls one method of a gae-server, found by wire name and
// argument count as the server finds it, and prints the reply as JSON. A
// string argument is taken as written, any other as JSON; structs name
// their members as on the wire, so a plan file is a PlanSpec:
//
//	gae -user alice -pass secret scheduler.submit "$(cat plan.json)"
//	gae steering.setpriority analysis-1 reco 9
//	gae quota.cheapest '["caltech","nust"]' 3600 100
//
// gae load runs loadgen's analysis mix from concurrent clients against
// the server, or with -data against an embedded deployment on that
// durable directory, and prints throughput and latency as JSON:
//
//	gae load -clients 8 -ops 128 -data /tmp/gae-load
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/loadgen"
	"repro/internal/simgrid"
	"repro/internal/xmlrpc"
	"repro/pkg/gae"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintf(os.Stderr, "gae: %v\n", err)
		}
		os.Exit(1)
	}
}

// run is the whole command: args are its arguments, without the
// program name.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gae", flag.ContinueOnError)
	server := fs.String("server", "http://localhost:8080", "Clarens endpoint")
	user := fs.String("user", "alice", "user name")
	pass := fs.String("pass", "secret", "password")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: gae [flags] <service.method> [args...]\n       gae [flags] load [-clients N] [-ops N] [-data DIR]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return flag.ErrHelp
	}
	ctx := context.Background()
	name, rest := fs.Arg(0), fs.Args()[1:]
	if name == "load" {
		return load(ctx, rest, *server, *user, *pass, stdout)
	}
	m, err := gae.Lookup(name, len(rest))
	if err != nil {
		return err
	}
	c, err := gae.Dial(ctx, *server, gae.WithCredentials(*user, *pass))
	if err != nil {
		return err
	}
	defer c.Close(ctx) //nolint:errcheck // best-effort logout; the call is over
	params := make(xmlrpc.Params, len(rest))
	for i, a := range rest {
		params[i] = a
	}
	reply, err := m.Call(c, ctx, params, argInto)
	if err != nil {
		return err
	}
	wire, err := xmlrpc.Marshal(reply)
	if err != nil {
		return err
	}
	return printJSON(stdout, wire)
}

// argInto decodes command-line argument i into dst: a string as written,
// anything else as JSON naming struct members as the wire does.
func argInto(args xmlrpc.Params, i int, dst any) error {
	arg := args[i].(string)
	if s, ok := dst.(*string); ok {
		*s = arg
		return nil
	}
	var tree any
	err := json.Unmarshal([]byte(arg), &tree)
	if err == nil {
		err = xmlrpc.Unmarshal(tree, dst)
	}
	if err != nil {
		return fmt.Errorf("argument %d %q: %w", i+1, arg, err)
	}
	return nil
}

func printJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// report is what gae load prints: the run's result, tagged with the
// server URL or data directory it loaded.
type report struct {
	Target string `json:"target"`
	loadgen.Result
}

// load runs the analysis mix against server, or with -data against an
// embedded deployment recovered from and journaled to that directory.
// It fails if any operation failed.
func load(ctx context.Context, args []string, server, user, pass string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gae load", flag.ContinueOnError)
	clients := fs.Int("clients", 8, "concurrent closed-loop clients")
	ops := fs.Int("ops", 64, "operations per client")
	data := fs.String("data", "", "durable state directory of an embedded deployment to load instead of -server")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	rep := report{Target: server}
	dial := func(ctx context.Context, _ int) (*gae.Client, error) {
		return gae.Dial(ctx, server, gae.WithCredentials(user, pass))
	}
	// stats reads the deployment's metrics after the run: an HTTP scrape
	// of a server, a registry snapshot of an embedded deployment.
	stats := func() *loadgen.ServerStats {
		st, err := loadgen.ScrapeServerStats(ctx, server)
		if err != nil {
			log.Printf("gae load: scraping %s/metrics: %v", server, err)
		}
		return st
	}
	if *data != "" {
		g, store, err := embedded(*data, user, pass)
		if err != nil {
			return err
		}
		defer store.Close() // every acknowledged call is already fsynced
		rep.Target = *data
		dial = func(context.Context, int) (*gae.Client, error) { return g.Client(user), nil }
		stats = func() *loadgen.ServerStats { return loadgen.ServerStatsOf(g.Telemetry.Snapshot()) }
	}
	res, err := loadgen.Run(ctx, loadgen.Analysis, loadgen.Config{Clients: *clients, Ops: *ops}, dial)
	if err != nil {
		return err
	}
	res.Server = stats()
	rep.Result = res
	if err := printJSON(stdout, rep); err != nil {
		return err
	}
	if res.Errors > 0 {
		return fmt.Errorf("%d of %d operations failed", res.Errors, res.Ops)
	}
	return nil
}

// embedded is the deployment gae load -data loads: two sites, a link
// between them, and the acting user as an administrator with generous
// credits, recovered from and journaled to the durable store in dir.
func embedded(dir, user, pass string) (*core.GAE, *durable.Store, error) {
	g := core.New(core.Config{
		Sites: []core.SiteSpec{
			{Name: "siteA", Nodes: 4, Load: simgrid.ConstantLoad(0.0), CostPerCPUSecond: 0.05},
			{Name: "siteB", Nodes: 4, Load: simgrid.ConstantLoad(0.3), CostPerCPUSecond: 0.02},
		},
		Links: []core.LinkSpec{{A: "siteA", B: "siteB", MBps: 10, LatencyMS: 50}},
		Users: []core.UserSpec{{Name: user, Password: pass, Credits: 1e9, Admin: true}},
	})
	store, err := durable.Open(dir)
	if err != nil {
		return nil, nil, err
	}
	if warn := store.ScanWarning(); warn != nil {
		log.Printf("gae load: journal recovered to last valid record: %v", warn)
	}
	if err := g.AttachStore(store); err != nil {
		store.Close()
		return nil, nil, fmt.Errorf("recovering %s: %w", dir, err)
	}
	return g, store, nil
}

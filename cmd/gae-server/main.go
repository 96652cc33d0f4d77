// Command gae-server hosts a complete Grid Analysis Environment: a
// simulated grid with Condor-like execution services, MonALISA
// monitoring, the Sphinx-like scheduler, and the steering / job
// monitoring / estimator / quota services on a Clarens XML-RPC endpoint.
//
// The simulated grid advances in real time (one simulated second per
// wall-clock second) unless -accel is given.
//
// With -data the server is crash-recoverable: state is restored from the
// directory's snapshot plus journal at start, every mutating RPC is
// journaled before it is acknowledged, checkpoints run periodically, and
// SIGINT/SIGTERM triggers a graceful drain — in-flight calls finish, a
// final checkpoint lands, and the process exits 0.
//
// Example:
//
//	gae-server -addr :8080 -data /var/lib/gae \
//	  -sites caltech:4:0.2:0.05,nust:2:0.0:0.01 \
//	  -links caltech-nust:10:50 \
//	  -users alice:secret:1000
//
// then call its methods with the gae command (gae scheduler.sites), or
// load it with gae load, at http://localhost:8080.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/simgrid"
)

// faultFsyncs is how many journal fsyncs -fault-fsync-after fails.
const faultFsyncs = 2

func main() {
	var (
		addr  = flag.String("addr", ":8080", "listen address for the Clarens host")
		sites = flag.String("sites", "siteA:2:0.0:0.05,siteB:2:0.3:0.02",
			"comma-separated site specs name:nodes:load:costPerCpuSecond")
		links = flag.String("links", "siteA-siteB:10:50",
			"comma-separated link specs a-b:MBps:latencyMS")
		users = flag.String("users", "alice:secret:1000",
			"comma-separated user specs name:password:credits (first user is admin)")
		accel = flag.Int("accel", 1, "simulated seconds per wall-clock second")
		data  = flag.String("data", "",
			"durable state directory (empty = in-memory only)")
		checkpoint = flag.Duration("checkpoint", time.Minute,
			"wall-clock period between checkpoints when -data is set")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second,
			"bound on the graceful drain; past it the server exits nonzero (0 = unbounded)")
		faultAfter = flag.Duration("fault-fsync-after", 0,
			"this long after start, tear the next journal write and fail the next 2 fsyncs (0 = never; needs -data)")
	)
	flag.Parse()

	var cfg core.Config
	var err error
	if cfg.Sites, err = parseSites(*sites); err != nil {
		log.Fatalf("gae-server: %v", err)
	}
	if cfg.Links, err = parseLinks(*links, cfg.Sites); err != nil {
		log.Fatalf("gae-server: %v", err)
	}
	if cfg.Users, err = parseUsers(*users); err != nil {
		log.Fatalf("gae-server: %v", err)
	}
	g := core.New(cfg)
	srv, err := NewServer(g, *data)
	if err != nil {
		log.Fatalf("gae-server: %v", err)
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
	if *faultAfter > 0 {
		// Interpose the fault file before traffic starts (the swap must not
		// race live appends), then script it on a timer so the fault lands
		// mid-load: the torn write fails its append, and the durability
		// loss above ends the process for journal recovery.
		if ff := srv.InjectFaults(); ff != nil {
			time.AfterFunc(*faultAfter, func() {
				ff.ShortWriteNext()
				ff.FailSyncs(faultFsyncs)
				log.Printf("fault injection armed: next journal write torn, next %d fsyncs fail", faultFsyncs)
			})
		} else {
			log.Printf("fault injection ignored: no durable store (-data unset)")
		}
	}
	url, err := srv.Start(*addr)
	if err != nil {
		log.Fatalf("gae-server: %v", err)
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
	if err := srv.Run(); err != nil {
		log.Fatalf("gae-server: %v", err)
	}
}

func parseSites(s string) ([]core.SiteSpec, error) {
	var out []core.SiteSpec
	seen := map[string]bool{}
	for _, spec := range splitNonEmpty(s) {
		parts := strings.Split(spec, ":")
		if len(parts) != 4 {
			return nil, fmt.Errorf("site spec %q: want name:nodes:load:cost", spec)
		}
		if err := newName(seen, parts[0]); err != nil {
			return nil, fmt.Errorf("site spec %q: %v", spec, err)
		}
		nodes, err := strconv.Atoi(parts[1])
		if err == nil && nodes < 1 {
			err = fmt.Errorf("%d is not positive", nodes)
		}
		if err != nil {
			return nil, fmt.Errorf("site spec %q: bad node count: %v", spec, err)
		}
		load, err := strconv.ParseFloat(parts[2], 64)
		if err == nil && (load < 0 || load > 1 || math.IsNaN(load)) {
			err = fmt.Errorf("%v is not a fraction in [0, 1]", load)
		}
		if err != nil {
			return nil, fmt.Errorf("site spec %q: bad load: %v", spec, err)
		}
		cost, err := parseAmount(parts[3])
		if err != nil {
			return nil, fmt.Errorf("site spec %q: bad cost: %v", spec, err)
		}
		out = append(out, core.SiteSpec{
			Name:             parts[0],
			Nodes:            nodes,
			Load:             simgrid.ConstantLoad(load),
			CostPerCPUSecond: cost,
		})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no sites configured")
	}
	return out, nil
}

// parseLinks reads link specs between the given sites.
func parseLinks(s string, sites []core.SiteSpec) ([]core.LinkSpec, error) {
	var out []core.LinkSpec
	for _, spec := range splitNonEmpty(s) {
		parts := strings.Split(spec, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("link spec %q: want a-b:MBps:latencyMS", spec)
		}
		ends := strings.Split(parts[0], "-")
		if len(ends) != 2 {
			return nil, fmt.Errorf("link spec %q: endpoints must be a-b", spec)
		}
		for _, end := range ends {
			if !slices.ContainsFunc(sites, func(site core.SiteSpec) bool { return site.Name == end }) {
				return nil, fmt.Errorf("link spec %q: %q is not a site", spec, end)
			}
		}
		if ends[0] == ends[1] {
			return nil, fmt.Errorf("link spec %q: a link joins two different sites", spec)
		}
		mbps, err := strconv.ParseFloat(parts[1], 64)
		if err == nil && (mbps <= 0 || math.IsNaN(mbps) || math.IsInf(mbps, 0)) {
			err = fmt.Errorf("%v is not a positive, finite rate", mbps)
		}
		if err != nil {
			return nil, fmt.Errorf("link spec %q: bad bandwidth: %v", spec, err)
		}
		lat, err := strconv.Atoi(parts[2])
		if err == nil && lat < 0 {
			err = fmt.Errorf("%d is negative", lat)
		}
		if err != nil {
			return nil, fmt.Errorf("link spec %q: bad latency: %v", spec, err)
		}
		out = append(out, core.LinkSpec{A: ends[0], B: ends[1], MBps: mbps, LatencyMS: lat})
	}
	return out, nil
}

func parseUsers(s string) ([]core.UserSpec, error) {
	var out []core.UserSpec
	seen := map[string]bool{}
	for i, spec := range splitNonEmpty(s) {
		parts := strings.Split(spec, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("user spec %q: want name:password:credits", spec)
		}
		if err := newName(seen, parts[0]); err != nil {
			return nil, fmt.Errorf("user spec %q: %v", spec, err)
		}
		credits, err := parseAmount(parts[2])
		if err != nil {
			return nil, fmt.Errorf("user spec %q: bad credits: %v", spec, err)
		}
		out = append(out, core.UserSpec{
			Name:     parts[0],
			Password: parts[1],
			Credits:  credits,
			Admin:    i == 0,
		})
	}
	return out, nil
}

// newName records name in seen, refusing an empty or repeated one.
func newName(seen map[string]bool, name string) error {
	switch {
	case name == "":
		return fmt.Errorf("empty name")
	case seen[name]:
		return fmt.Errorf("duplicate name %q", name)
	}
	seen[name] = true
	return nil
}

// parseAmount reads a finite, non-negative number: credits or a price.
func parseAmount(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err == nil && (v < 0 || math.IsNaN(v) || math.IsInf(v, 0)) {
		err = fmt.Errorf("%v is not a finite, non-negative amount", v)
	}
	return v, err
}

func splitNonEmpty(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

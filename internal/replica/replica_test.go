package replica

import (
	"math"
	"testing"
	"time"

	"repro/internal/estimator"
	"repro/internal/simgrid"
)

func TestRegisterAndLocations(t *testing.T) {
	c := NewCatalog()
	if err := c.Register("run1.raw", "cern", 800); err != nil {
		t.Fatal(err)
	}
	if err := c.Register("run1.raw", "caltech", 800); err != nil {
		t.Fatal(err)
	}
	if err := c.Register("run2.raw", "cern", 400); err != nil {
		t.Fatal(err)
	}
	locs := c.Locations("run1.raw")
	if len(locs) != 2 || locs[0].Site != "caltech" || locs[1].Site != "cern" {
		t.Fatalf("Locations = %+v", locs)
	}
	if got := c.Locations("ghost"); len(got) != 0 {
		t.Fatalf("Locations of an unknown dataset = %+v", got)
	}
	ds := c.Datasets()
	if len(ds) != 2 || ds[0] != "run1.raw" || ds[1] != "run2.raw" {
		t.Fatalf("Datasets = %v", ds)
	}
}

func TestRegisterValidation(t *testing.T) {
	c := NewCatalog()
	if err := c.Register("", "s", 1); err == nil {
		t.Error("empty dataset accepted")
	}
	if err := c.Register("d", "", 1); err == nil {
		t.Error("empty site accepted")
	}
	for _, size := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := c.Register("d", "s", size); err == nil {
			t.Errorf("size %v accepted", size)
		}
	}
	if got := c.Datasets(); len(got) != 0 {
		t.Fatalf("rejected registrations left datasets %v", got)
	}
}

// gridFixture: three sites; b is close to a (fast link), c is far (slow).
func gridFixture() (*simgrid.Grid, *estimator.TransferEstimator) {
	g := simgrid.NewGrid(time.Second, 1)
	for _, n := range []string{"a", "b", "c"} {
		g.AddSite(n)
	}
	g.Network.Connect("a", "b", simgrid.Link{BandwidthMBps: 100})
	g.Network.Connect("a", "c", simgrid.Link{BandwidthMBps: 1})
	g.Network.Connect("b", "c", simgrid.Link{BandwidthMBps: 1})
	return g, &estimator.TransferEstimator{Network: g.Network}
}

func TestBestPrefersLocalReplica(t *testing.T) {
	_, te := gridFixture()
	c := NewCatalog()
	c.Register("d", "a", 100)
	c.Register("d", "b", 100)
	loc, sec, err := c.Best(te, "d", "b")
	if err != nil {
		t.Fatal(err)
	}
	if loc.Site != "b" || sec != 0 {
		t.Fatalf("Best = %+v, %v", loc, sec)
	}
}

func TestBestPicksClosestRemote(t *testing.T) {
	_, te := gridFixture()
	c := NewCatalog()
	c.Register("d", "b", 100) // 100MB at 100MB/s from a → 1s
	c.Register("d", "c", 100) // 100MB at 1MB/s from a → 100s
	loc, sec, err := c.Best(te, "d", "a")
	if err != nil {
		t.Fatal(err)
	}
	if loc.Site != "b" {
		t.Fatalf("Best chose %s", loc.Site)
	}
	if sec < 0.9 || sec > 1.1 {
		t.Fatalf("transfer estimate = %v", sec)
	}
}

func TestBestSkipsUnreachableReplicas(t *testing.T) {
	g, te := gridFixture()
	g.AddSite("island") // no links
	c := NewCatalog()
	c.Register("d", "island", 50)
	c.Register("d", "c", 50)
	loc, _, err := c.Best(te, "d", "a")
	if err != nil {
		t.Fatal(err)
	}
	if loc.Site != "c" {
		t.Fatalf("Best = %+v", loc)
	}
	// Only unreachable replicas: error.
	c2 := NewCatalog()
	c2.Register("d", "island", 50)
	if _, _, err := c2.Best(te, "d", "a"); err == nil {
		t.Fatal("unreachable-only Best succeeded")
	}
}

func TestBestErrors(t *testing.T) {
	_, te := gridFixture()
	c := NewCatalog()
	if _, _, err := c.Best(te, "ghost", "a"); err == nil {
		t.Fatal("Best of unknown dataset succeeded")
	}
}

func TestBestWithoutEstimatorIsDeterministic(t *testing.T) {
	c := NewCatalog()
	c.Register("d", "zeta", 10)
	c.Register("d", "alpha", 10)
	loc, sec, err := c.Best(nil, "d", "other")
	if err != nil || loc.Site != "alpha" || sec != 0 {
		t.Fatalf("Best(nil) = %+v, %v, %v", loc, sec, err)
	}
}

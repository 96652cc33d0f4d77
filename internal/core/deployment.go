package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/jsonfile"
	"repro/internal/simgrid"
	"repro/internal/vtime"
)

// Validate reports the first part of c that New cannot build as written,
// naming its field: no sites; a site with an empty or repeated name, no
// nodes, a load level outside [0, 1] at the grid's epoch, or a negative
// or non-finite cost; a link that does not join two different configured
// sites, or whose bandwidth is not positive and finite or whose latency
// is negative; a user with an empty or repeated name, or negative or
// non-finite credits. It is one pass over the sites, links and users.
func (c Config) Validate() error {
	if len(c.Sites) == 0 {
		return errors.New("Sites: a deployment needs at least one site")
	}
	sites := make(map[string]bool, len(c.Sites))
	for i, s := range c.Sites {
		if err := newName(sites, s.Name); err != nil {
			return fmt.Errorf("Sites[%d].Name: %w", i, err)
		}
		if s.Nodes < 1 {
			return fmt.Errorf("Sites[%d].Nodes: %d is not positive", i, s.Nodes)
		}
		if s.Load != nil {
			if v, _ := s.Load.Segment(vtime.Epoch); !(v >= 0 && v <= 1) {
				return fmt.Errorf("Sites[%d].Load: %v at the epoch is not a level in [0, 1]", i, v)
			}
		}
		if !isAmount(s.CostPerCPUSecond) {
			return fmt.Errorf("Sites[%d].CostPerCPUSecond: %v is not a finite, non-negative amount", i, s.CostPerCPUSecond)
		}
		if !isAmount(s.CostPerTransferMB) {
			return fmt.Errorf("Sites[%d].CostPerTransferMB: %v is not a finite, non-negative amount", i, s.CostPerTransferMB)
		}
	}
	for i, l := range c.Links {
		switch {
		case !sites[l.A]:
			return fmt.Errorf("Links[%d].A: %q is not a configured site", i, l.A)
		case !sites[l.B]:
			return fmt.Errorf("Links[%d].B: %q is not a configured site", i, l.B)
		case l.A == l.B:
			return fmt.Errorf("Links[%d].B: a link joins two different sites, not %q to itself", i, l.A)
		case !(l.MBps > 0 && !math.IsInf(l.MBps, 1)):
			return fmt.Errorf("Links[%d].MBps: %v is not a positive, finite rate", i, l.MBps)
		case l.LatencyMS < 0:
			return fmt.Errorf("Links[%d].LatencyMS: %d is negative", i, l.LatencyMS)
		}
	}
	users := make(map[string]bool, len(c.Users))
	for i, u := range c.Users {
		if err := newName(users, u.Name); err != nil {
			return fmt.Errorf("Users[%d].Name: %w", i, err)
		}
		if !isAmount(u.Credits) {
			return fmt.Errorf("Users[%d].Credits: %v is not a finite, non-negative amount", i, u.Credits)
		}
	}
	return nil
}

// newName records name in seen, refusing an empty or repeated one.
func newName(seen map[string]bool, name string) error {
	switch {
	case name == "":
		return errors.New("empty name")
	case seen[name]:
		return fmt.Errorf("duplicate name %q", name)
	}
	seen[name] = true
	return nil
}

// isAmount reports whether v is a finite, non-negative price or balance.
func isAmount(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// LoadDeployment reads the deployment file at path: strict JSON (an
// unknown field or trailing data is an error) holding Sites, Links and
// Users by their Go field names, and validated. A site's Load is a
// constant level in [0, 1] (omitted: idle).
func LoadDeployment(path string) (Config, error) {
	var file struct {
		Config
		Sites []struct {
			SiteSpec
			Load float64
		}
	}
	if err := jsonfile.Read(path, &file); err != nil {
		return Config{}, fmt.Errorf("core: %w", err)
	}
	cfg := file.Config
	for i, s := range file.Sites {
		// ConstantLoad would clamp a level outside [0, 1].
		if !(s.Load >= 0 && s.Load <= 1) {
			return Config{}, fmt.Errorf("core: %s: Sites[%d].Load: %v is not a level in [0, 1]", path, i, s.Load)
		}
		s.SiteSpec.Load = simgrid.ConstantLoad(s.Load)
		cfg.Sites = append(cfg.Sites, s.SiteSpec)
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, fmt.Errorf("core: %s: %w", path, err)
	}
	return cfg, nil
}

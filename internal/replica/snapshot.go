package replica

// Export lists the catalog for the durable snapshot codec, sorted by
// dataset then site — the canonical order the recovery suite compares.
func (c *Catalog) Export() []Location {
	var out []Location
	for _, d := range c.Datasets() {
		out = append(out, c.Locations(d)...)
	}
	return out
}

// Restore overwrites the catalog with the exported entries.
func (c *Catalog) Restore(locs []Location) error {
	c.sets = make(map[string]map[string]float64)
	for _, l := range locs {
		if err := c.Register(l.Dataset, l.Site, l.SizeMB); err != nil {
			return err
		}
	}
	return nil
}

package durable

// WrapSnapshotTemp arms the checkpoint write's fault-injection seam from
// the external test package: wrap interposes on the next snapshot temp
// files (nil disarms).
func (s *Store) WrapSnapshotTemp(wrap func(File) File) { s.wrapTemp = wrap }

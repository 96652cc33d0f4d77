package durable

// WrapSnapshotTemp arms the checkpoint write's fault-injection seam from
// the external test package: wrap interposes on the next snapshot temp
// files (nil disarms).
func (s *Store) WrapSnapshotTemp(wrap func(File) File) { s.wrapTemp = wrap }

// WrapHistory interposes on the open history segment: the fault-injection
// seam of a checkpoint's history append.
func (s *Store) WrapHistory(wrap func(File) File) { s.history.f = wrap(s.history.f) }

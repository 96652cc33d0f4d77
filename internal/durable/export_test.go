package durable

// OpenOn is Open on the file system fsys.
func OpenOn(fsys fileSystem, dir string) (*Store, error) { return open(fsys, dir) }

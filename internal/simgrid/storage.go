package simgrid

import "fmt"

// File is a named dataset replica held by a storage element.
type File struct {
	Name   string
	SizeMB float64
}

// Storage is a site's storage element: a set of named files, written with
// Put and read with Get. The data-grid side of the paper (selecting and
// accessing datasets from suitable storage elements) reduces to replica
// lookup plus transfer-time estimation over the Network. Staging a dataset
// to another site is the scheduler's: Network.StartTransfer, then Put at
// the destination and a replica-catalog registration when the flow lands.
type Storage struct {
	files map[string]File
}

// NewStorage creates an empty storage element.
func NewStorage() *Storage {
	return &Storage{files: make(map[string]File)}
}

// Put stores (or replaces) a file.
func (s *Storage) Put(name string, sizeMB float64) error {
	if name == "" {
		return fmt.Errorf("simgrid: empty file name")
	}
	if sizeMB < 0 {
		return fmt.Errorf("simgrid: negative size for %q", name)
	}
	s.files[name] = File{Name: name, SizeMB: sizeMB}
	return nil
}

// Get returns the named file.
func (s *Storage) Get(name string) (File, bool) {
	f, ok := s.files[name]
	return f, ok
}

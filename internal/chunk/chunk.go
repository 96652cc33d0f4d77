// Package chunk carves records out of slices it owns, for an owner that
// keeps many small records as long as it lives: one allocation holds
// many records, so the collector marks a handful of objects where it
// would mark one a record (Bonwick's slab allocator, with no free list).
package chunk

import (
	"slices"
	"unsafe"
)

// A chunk starts at firstBytes and doubles up to maxBytes, so an owner
// with a few records holds a few kilobytes of chunk.
const firstBytes, maxBytes = 1 << 10, 16 << 10

// Of carves runs of T from its chunks. A chunk is as long as its
// allocation holds (slices.Grow rounds up to the size class, or to whole
// pages), so it wastes less than one T. A run's capacity is its length:
// appending to one moves it and never touches the next. A chunk is freed
// only once nothing points into it: for an owner that keeps every
// record, once every record in it is gone.
type Of[T any] struct{ buf []T }

// Take returns n zeroed records with capacity n.
func (c *Of[T]) Take(n int) []T {
	if cap(c.buf)-len(c.buf) < n {
		each := int(unsafe.Sizeof(*new(T)))
		size := min(max(2*cap(c.buf), firstBytes/each), maxBytes/each)
		c.buf = slices.Grow([]T(nil), max(size, n))
	}
	lo := len(c.buf)
	c.buf = c.buf[:lo+n]
	return c.buf[lo : lo+n : lo+n]
}

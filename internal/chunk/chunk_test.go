package chunk

import (
	"slices"
	"testing"
	"unsafe"
)

// record is the size of the execution service's job record, and holds a
// pointer, as it does.
type record struct {
	p   *int
	pad [21]uintptr
}

// Chunks of 176-byte records double from 1 KiB to 16 KiB, each as long
// as its allocation holds: 5 records fill the 896-byte size class, 10 the
// 1,792, 23 the 4,096, 46 the 8,192 and 93 the 16,384 (less the 8-byte
// header a pointerful object over 512 bytes carries). Runs never overlap
// and end at their length.
func TestTakeDoublesAndFillsSizeClasses(t *testing.T) {
	if unsafe.Sizeof(record{}) != 176 {
		t.Skipf("record is %d bytes here; the size classes below are a 64-bit platform's", unsafe.Sizeof(record{}))
	}
	var c Of[record]
	var chunks []int
	var prev *record
	for i := 0; i < 400; i++ {
		run := c.Take(1)
		if len(run) != 1 || cap(run) != 1 {
			t.Fatalf("Take(1) = len %d cap %d, want 1 and 1", len(run), cap(run))
		}
		if len(c.buf) == 1 {
			chunks = append(chunks, cap(c.buf))
		} else if &run[0] != (*record)(unsafe.Add(unsafe.Pointer(prev), unsafe.Sizeof(record{}))) {
			t.Fatalf("record %d is not beside the one before it", i)
		}
		prev = &run[0]
	}
	if want := []int{5, 10, 23, 46, 93, 93, 93, 93}; !slices.Equal(chunks, want) {
		t.Errorf("chunk lengths %v, want %v", chunks, want)
	}
	if run := c.Take(200); len(run) != 200 || cap(run) != 200 {
		t.Errorf("Take(200) = len %d cap %d: a run longer than a chunk gets one of its own", len(run), cap(run))
	}
	if run := c.Take(0); len(run) != 0 || cap(run) != 0 {
		t.Errorf("Take(0) = len %d cap %d, want 0 and 0", len(run), cap(run))
	}
}

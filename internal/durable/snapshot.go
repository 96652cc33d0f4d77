package durable

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"time"
)

// writeSnapshot streams the snapshot document to w in one pass: the
// envelope by hand, then each section the producer emits through one
// encoder as "name":value. Nothing is indented; the encoder's newline
// after every value is legal JSON whitespace and leaves one section per
// line. The document decodes to exactly what json.Marshal of the
// equivalent Snapshot decodes to — sections that State tags omitempty are
// left out when empty — without the State ever existing in memory. One
// thing is not in the document: the quota section's ledger goes to history
// (the store's segment append), and the count history returns — the
// records the snapshot stands on — closes the envelope.
func writeSnapshot(w io.Writer, lastSeq uint64, simTime time.Time, produce func(Emit) error, history func([]QuotaCharge) (int, error)) error {
	stamp, err := json.Marshal(simTime.UTC())
	if err != nil {
		return fmt.Errorf("durable: encoding snapshot time: %w", err)
	}
	if _, err := fmt.Fprintf(w, `{"version":%d,"last_seq":%d,"sim_time":%s,"state":{`, SnapshotVersion, lastSeq, stamp); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	sep := ""
	covered := 0
	err = consume(produce, func(_ int, name string, omitEmpty bool, v reflect.Value) error {
		if q, ok := v.Interface().(QuotaState); ok {
			var err error
			if covered, err = history(q.Ledger); err != nil {
				return err
			}
			q.Ledger = nil
			v = reflect.ValueOf(q)
		}
		if omitEmpty && isEmptyValue(v) {
			return nil
		}
		if _, err := fmt.Fprintf(w, "%s%q:", sep, name); err != nil {
			return err
		}
		sep = ","
		if err := enc.Encode(v.Interface()); err != nil {
			return fmt.Errorf("durable: encoding snapshot section %q: %w", name, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "},\"history_records\":%d}\n", covered)
	return err
}

// isEmptyValue is encoding/json's omitempty test.
func isEmptyValue(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Slice, reflect.Map, reflect.String, reflect.Array:
		return v.Len() == 0
	case reflect.Struct:
		return false
	}
	return v.IsZero()
}

// writeAtomic writes path with crash-safe replacement: fill writes the
// content through a 64 KiB buffer into a temp file in the same directory,
// which is fsynced and only then renamed over the destination, followed by
// a directory fsync so the rename itself is durable — a crash at any point
// leaves either the old file or the new one, never a torn mix. The byte
// count written is returned. wrap, when non-nil, interposes on
// the temp file (the fault-injection seam; nil in production).
func writeAtomic(path string, perm fs.FileMode, wrap func(File) File, fill func(io.Writer) error) (int64, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return 0, fmt.Errorf("durable: creating temp file: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename

	var f File = tmp
	if wrap != nil {
		f = wrap(f)
	}
	var size int64
	bw := bufio.NewWriterSize(f, 64<<10)
	err = fill(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = tmp.Chmod(perm)
	}
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		size, err = f.Seek(0, io.SeekCurrent) // the offset the writes left behind
	}
	if err != nil {
		f.Close()
		return 0, fmt.Errorf("durable: writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("durable: closing %s: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return 0, fmt.Errorf("durable: renaming into %s: %w", path, err)
	}
	return size, syncDir(dir)
}

// syncDir fsyncs a directory so a just-completed rename survives a crash.
// Directory fsync is best-effort: some filesystems (and CI sandboxes)
// reject it with EINVAL even though the rename is already safe on them.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("durable: opening dir %s: %w", dir, err)
	}
	defer d.Close()
	d.Sync()
	return nil
}

// LoadSnapshot reads and validates the snapshot at path. A missing file
// returns (nil, nil): a cold start, not an error.
func LoadSnapshot(path string) (*Snapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("durable: reading snapshot: %w", err)
	}
	return DecodeSnapshot(raw)
}

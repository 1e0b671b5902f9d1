// Package persist serializes neighbor-table snapshots to a stable JSON
// format, so a node can dump its routing state for diagnostics or reload
// it after a restart (restart + StartRejoin re-announces the node without
// rebuilding the table from scratch).
package persist

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync/atomic"

	"hypercube/internal/id"
	"hypercube/internal/table"
)

// formatVersion guards against silently reading an incompatible dump.
const formatVersion = 1

// ErrCorrupt marks a dump that is damaged — truncated, bit-flipped,
// missing its checksum or failing it — as opposed to merely
// incompatible (wrong version or ID-space parameters). A restarting
// node that hits a corrupt dump must fall back to a fresh join rather
// than trust the bytes; callers detect the case with IsCorrupt.
var ErrCorrupt = errors.New("corrupt dump")

// IsCorrupt reports whether err means the dump bytes are damaged and a
// restart should proceed as a fresh join.
func IsCorrupt(err error) bool { return errors.Is(err, ErrCorrupt) }

// corruptions counts corrupt dumps detected process-wide, so harnesses
// can assert the fallback path actually fired.
var corruptions atomic.Uint64

// CorruptionsDetected returns how many corrupt dumps this process has
// detected and rejected.
func CorruptionsDetected() uint64 { return corruptions.Load() }

func corruptf(format string, args ...any) error {
	corruptions.Add(1)
	return fmt.Errorf("persist: %w: "+format, append([]any{ErrCorrupt}, args...)...)
}

// fileEntry is one non-empty table entry on disk.
type fileEntry struct {
	Level int    `json:"level"`
	Digit int    `json:"digit"`
	ID    string `json:"id"`
	Addr  string `json:"addr,omitempty"`
	State string `json:"state"`
}

// filePeer is one peer of a dump's sampled list.
type filePeer struct {
	ID   string `json:"id"`
	Addr string `json:"addr,omitempty"`
}

// fileSnapshot is the on-disk form of a snapshot.
type fileSnapshot struct {
	Version int `json:"version"`
	// Checksum is the CRC32 (IEEE) of the dump's canonical JSON bytes
	// with this field empty, hex-encoded. LoadState re-derives the
	// canonical bytes from the decoded values and compares, so any bit
	// flip that changes a value — not just one that breaks JSON syntax —
	// is caught. A dump without one is corrupt. The canonical bytes leave
	// the field out (omitempty), so they never contain the sum itself.
	Checksum string      `json:"crc32,omitempty"`
	B        int         `json:"b"`
	D        int         `json:"d"`
	Owner    string      `json:"owner"`
	Lo       int         `json:"lo"`
	Hi       int         `json:"hi"`
	Entries  []fileEntry `json:"entries"`
	// Sampled is the peer sampler's long-term sample, which daemons that
	// ran one wrote beside the table. Nothing writes or reads it any more,
	// but the checksum covers it: decoding it keeps such a dump's
	// canonical bytes, and so the dump, intact.
	Sampled []filePeer `json:"sampled,omitempty"`
}

// SaveState writes the snapshot to w.
func SaveState(w io.Writer, snap table.Snapshot) error {
	if snap.IsZero() {
		return fmt.Errorf("persist: cannot save a zero snapshot")
	}
	p := snap.Params()
	lo, hi := snap.LevelRange()
	out := fileSnapshot{
		Version: formatVersion,
		B:       p.B,
		D:       p.D,
		Owner:   snap.Owner().String(),
		Lo:      lo,
		Hi:      hi,
	}
	snap.ForEach(func(level, digit int, n table.Neighbor) {
		out.Entries = append(out.Entries, fileEntry{
			Level: level, Digit: digit,
			ID: n.ID.String(), Addr: n.Addr, State: n.State.String(),
		})
	})
	body, err := canonical(&out)
	if err != nil {
		return fmt.Errorf("persist: encode: %w", err)
	}
	out.Checksum = fmt.Sprintf("%08x", crc32.ChecksumIEEE(body))
	final, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return fmt.Errorf("persist: encode: %w", err)
	}
	if _, err := w.Write(append(final, '\n')); err != nil {
		return fmt.Errorf("persist: write: %w", err)
	}
	return nil
}

// canonical returns the checksum-covered byte form of a snapshot: its
// indented JSON with the checksum field cleared. SaveState computes the
// CRC over these bytes; LoadState re-derives them from the decoded
// values, so the check survives whitespace damage (harmless) while
// catching any flip that altered a value.
func canonical(s *fileSnapshot) ([]byte, error) {
	saved := s.Checksum
	s.Checksum = ""
	b, err := json.MarshalIndent(s, "", "  ")
	s.Checksum = saved
	return b, err
}

// LoadState reads a snapshot from r.
func LoadState(r io.Reader, p id.Params) (table.Snapshot, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return table.Snapshot{}, fmt.Errorf("persist: read: %w", err)
	}
	var in fileSnapshot
	if err := json.Unmarshal(raw, &in); err != nil {
		// Truncated or syntactically mangled bytes: the dump is damaged,
		// not from a different version of us.
		return table.Snapshot{}, corruptf("decode: %v", err)
	}
	if in.Checksum == "" {
		// SaveState always writes one, so it was lost to damage: a
		// flip in the field's key leaves the sum unread.
		return table.Snapshot{}, corruptf("no crc32 checksum")
	}
	body, err := canonical(&in)
	if err != nil {
		return table.Snapshot{}, fmt.Errorf("persist: encode: %w", err)
	}
	if got := fmt.Sprintf("%08x", crc32.ChecksumIEEE(body)); got != in.Checksum {
		return table.Snapshot{}, corruptf("checksum %s, dump says %s", got, in.Checksum)
	}
	if in.Version != formatVersion {
		return table.Snapshot{}, fmt.Errorf("persist: format version %d, want %d", in.Version, formatVersion)
	}
	if in.B != p.B || in.D != p.D {
		return table.Snapshot{}, fmt.Errorf("persist: dump is for b=%d d=%d, want b=%d d=%d", in.B, in.D, p.B, p.D)
	}
	owner, err := id.Parse(p, in.Owner)
	if err != nil {
		return table.Snapshot{}, corruptf("owner: %v", err)
	}
	entries := make(map[[2]int]table.Neighbor, len(in.Entries))
	for _, e := range in.Entries {
		x, err := id.Parse(p, e.ID)
		if err != nil {
			return table.Snapshot{}, corruptf("entry (%d,%d): %v", e.Level, e.Digit, err)
		}
		var st table.State
		switch e.State {
		case "T":
			st = table.StateT
		case "S":
			st = table.StateS
		default:
			return table.Snapshot{}, corruptf("entry (%d,%d): unknown state %q", e.Level, e.Digit, e.State)
		}
		entries[[2]int{e.Level, e.Digit}] = table.Neighbor{ID: x, Addr: e.Addr, State: st}
	}
	snap, err := table.NewSnapshot(p, owner, in.Lo, in.Hi, entries)
	if err != nil {
		return table.Snapshot{}, corruptf("%v", err)
	}
	return snap, nil
}

// saveHook, when non-nil, runs after the snapshot bytes are written to
// the temp file but before it is synced and renamed into place. Tests
// use it to kill a save midway and prove the previous dump survives.
var saveHook func(tmp *os.File) error

// SaveFileState writes the snapshot atomically: the bytes go to a temp file in the same directory, are
// fsynced, and only then renamed over path. A crash at any point leaves
// either the old dump or the new one, never a torn file — the rename is
// the commit point, and the fsync ensures the data is durable before the
// name flips to it.
func SaveFileState(path string, snap table.Snapshot) error {
	tmp, err := os.CreateTemp(dirOf(path), ".table-*.json")
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := SaveState(tmp, snap); err != nil {
		tmp.Close()
		return err
	}
	if saveHook != nil {
		if err := saveHook(tmp); err != nil {
			tmp.Close()
			return fmt.Errorf("persist: %w", err)
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	syncDir(dirOf(path))
	return nil
}

// syncDir flushes the directory so the rename itself survives a crash.
// Best-effort: some filesystems refuse to sync directories, and the
// data file is already durable at this point.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	defer d.Close()
	_ = d.Sync()
}

// LoadFileState reads a snapshot previously written by SaveFileState.
func LoadFileState(path string, p id.Params) (table.Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return table.Snapshot{}, fmt.Errorf("persist: %w", err)
	}
	defer f.Close()
	return LoadState(f, p)
}

// Restore materializes a mutable table from a snapshot.
func Restore(snap table.Snapshot) *table.Table {
	tbl := table.New(snap.Params(), snap.Owner())
	snap.ForEach(func(level, digit int, n table.Neighbor) {
		tbl.Set(level, digit, n)
	})
	return tbl
}

func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[:i]
		}
	}
	return "."
}

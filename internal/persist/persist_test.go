package persist

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hypercube/internal/id"
	"hypercube/internal/table"
)

var p164 = id.Params{B: 16, D: 4}

func sampleTable(t *testing.T) *table.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	owner := id.Random(p164, rng)
	tbl := table.New(p164, owner)
	for i := 0; i < p164.D; i++ {
		tbl.Set(i, owner.Digit(i), table.Neighbor{ID: owner, State: table.StateS})
	}
	for n := 0; n < 20; n++ {
		level, digit := rng.Intn(p164.D), rng.Intn(p164.B)
		st := table.StateS
		if rng.Intn(3) == 0 {
			st = table.StateT
		}
		cand := id.Random(p164, rng)
		if tbl.Qualifies(level, digit, cand) {
			tbl.Set(level, digit, table.Neighbor{ID: cand, Addr: "10.0.0.1:99", State: st})
		}
	}
	return tbl
}

func TestSaveLoadRoundTrip(t *testing.T) {
	tbl := sampleTable(t)
	var buf bytes.Buffer
	if err := SaveState(&buf, tbl.Snapshot()); err != nil {
		t.Fatal(err)
	}
	back, err := LoadState(&buf, p164)
	if err != nil {
		t.Fatal(err)
	}
	if back.Owner() != tbl.Owner() {
		t.Fatalf("owner %v, want %v", back.Owner(), tbl.Owner())
	}
	for i := 0; i < p164.D; i++ {
		for j := 0; j < p164.B; j++ {
			if back.Get(i, j) != tbl.Get(i, j) {
				t.Fatalf("entry (%d,%d) differs: %+v vs %+v", i, j, back.Get(i, j), tbl.Get(i, j))
			}
		}
	}
	restored := Restore(back)
	if restored.FilledCount() != tbl.FilledCount() {
		t.Fatalf("restored %d entries, want %d", restored.FilledCount(), tbl.FilledCount())
	}
}

func TestSaveZeroSnapshotFails(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveState(&buf, table.Snapshot{}); err == nil {
		t.Fatal("zero snapshot saved")
	}
}

func TestLoadRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"garbage":       "not json",
		"wrongVersion":  `{"version":99,"b":16,"d":4,"owner":"0000"}`,
		"wrongSpace":    `{"version":1,"b":4,"d":4,"owner":"0000"}`,
		"badOwner":      `{"version":1,"b":16,"d":4,"owner":"zzzz"}`,
		"badEntryID":    `{"version":1,"b":16,"d":4,"owner":"0123","lo":0,"hi":3,"entries":[{"level":0,"digit":1,"id":"!!!!","state":"S"}]}`,
		"badEntryState": `{"version":1,"b":16,"d":4,"owner":"0123","lo":0,"hi":3,"entries":[{"level":0,"digit":1,"id":"aaa1","state":"Q"}]}`,
		"badEntryRange": `{"version":1,"b":16,"d":4,"owner":"0123","lo":0,"hi":3,"entries":[{"level":9,"digit":1,"id":"aaa1","state":"S"}]}`,
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := LoadState(strings.NewReader(in), p164); err == nil {
				t.Fatalf("accepted %q", in)
			}
		})
	}
}

func TestSaveFileLoadFile(t *testing.T) {
	tbl := sampleTable(t)
	path := filepath.Join(t.TempDir(), "table.json")
	if err := SaveFileState(path, tbl.Snapshot()); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFileState(path, p164)
	if err != nil {
		t.Fatal(err)
	}
	if back.FilledCount() != tbl.FilledCount() {
		t.Fatalf("FilledCount %d, want %d", back.FilledCount(), tbl.FilledCount())
	}
	if _, err := LoadFileState(filepath.Join(t.TempDir(), "missing.json"), p164); err == nil {
		t.Fatal("missing file loaded")
	}
}

func TestKilledSaveKeepsPreviousDump(t *testing.T) {
	// A node that dies mid-dump must not destroy the dump it restarts
	// from. Write a good file, then kill a second save after a partial
	// write (the temp file is truncated to half and the save aborts,
	// before the rename commit point): the original must load intact
	// and no temp debris may remain.
	dir := t.TempDir()
	path := filepath.Join(dir, "table.json")
	tbl := sampleTable(t)
	if err := SaveFileState(path, tbl.Snapshot()); err != nil {
		t.Fatal(err)
	}

	saveHook = func(tmp *os.File) error {
		info, err := tmp.Stat()
		if err != nil {
			return err
		}
		if err := tmp.Truncate(info.Size() / 2); err != nil {
			return err
		}
		return errors.New("killed mid-write")
	}
	defer func() { saveHook = nil }()
	if err := SaveFileState(path, tbl.Snapshot()); err == nil {
		t.Fatal("killed save reported success")
	}

	back, err := LoadFileState(path, p164)
	if err != nil {
		t.Fatalf("previous dump lost: %v", err)
	}
	if back.Owner() != tbl.Owner() || back.FilledCount() != tbl.FilledCount() {
		t.Fatalf("previous dump corrupted: owner %v filled %d, want %v / %d",
			back.Owner(), back.FilledCount(), tbl.Owner(), tbl.FilledCount())
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || files[0].Name() != "table.json" {
		names := make([]string, len(files))
		for i, f := range files {
			names[i] = f.Name()
		}
		t.Fatalf("temp debris left behind: %v", names)
	}
}

func TestRestartRejoinFlow(t *testing.T) {
	// The intended use: dump a node's table, "restart" it as an
	// established machine with the restored table, and re-announce.
	tbl := sampleTable(t)
	path := filepath.Join(t.TempDir(), "node.json")
	if err := SaveFileState(path, tbl.Snapshot()); err != nil {
		t.Fatal(err)
	}
	snap, err := LoadFileState(path, p164)
	if err != nil {
		t.Fatal(err)
	}
	restored := Restore(snap)
	if restored.Owner() != tbl.Owner() {
		t.Fatal("owner lost through restart")
	}
	// The restored table is a drop-in for core.NewEstablished; its
	// version counter starts fresh but content matches.
	if restored.FilledCount() == 0 {
		t.Fatal("restored table empty")
	}
}

// sampledDump is a dump in today's format that also carries a sampled
// list, as daemons that ran a peer sampler wrote: sampleTable's table
// plus two sampled peers, written by SaveFileState before the list was
// dropped from the write path.
const sampledDump = "testdata/sampled.json"

// TestSampledDumpLoadsIntact: a dump with a sampled list still loads as
// intact, with its table, although nothing reads the list any more — the
// checksum covers the list, so the decoder must keep the field.
func TestSampledDumpLoadsIntact(t *testing.T) {
	snap, err := LoadFileState(sampledDump, p164)
	if err != nil {
		t.Fatalf("dump with a sampled list: %v", err)
	}
	tbl := sampleTable(t)
	if snap.Owner() != tbl.Owner() || snap.FilledCount() != tbl.FilledCount() {
		t.Fatalf("loaded owner %v with %d entries, want %v with %d", snap.Owner(), snap.FilledCount(), tbl.Owner(), tbl.FilledCount())
	}
	for i := 0; i < p164.D; i++ {
		for j := 0; j < p164.B; j++ {
			if snap.Get(i, j) != tbl.Get(i, j) {
				t.Fatalf("entry (%d,%d) differs: %+v vs %+v", i, j, snap.Get(i, j), tbl.Get(i, j))
			}
		}
	}
}

func TestBitFlipCorruptionDetected(t *testing.T) {
	// The corruption-injection test: flip every bit of a valid dump in
	// turn and load each damaged copy. Every load must either detect
	// corruption (the restart-as-fresh-join path) or — never — succeed
	// while returning a snapshot that differs from the original. A flip
	// may legally go unnoticed only when it does not change the decoded
	// values (whitespace damage), in which case the load must return the
	// exact original state. The dump with a sampled list must catch flips
	// inside the list too.
	var buf bytes.Buffer
	if err := SaveState(&buf, sampleTable(t).Snapshot()); err != nil {
		t.Fatal(err)
	}
	withSampled, err := os.ReadFile(sampledDump)
	if err != nil {
		t.Fatal(err)
	}
	for name, good := range map[string][]byte{"today's": buf.Bytes(), "with a sampled list": withSampled} {
		t.Run(name, func(t *testing.T) { flipEveryBit(t, good) })
	}
}

func flipEveryBit(t *testing.T, good []byte) {
	want, err := LoadState(bytes.NewReader(good), p164)
	if err != nil {
		t.Fatal(err)
	}
	before := CorruptionsDetected()
	detected, harmless := 0, 0
	// Step by a prime so the sweep covers bytes all over the file
	// without taking len(good)*8 loads.
	for off := 0; off < len(good); off += 7 {
		for bit := 0; bit < 8; bit++ {
			bad := append([]byte(nil), good...)
			bad[off] ^= 1 << bit
			snap, err := LoadState(bytes.NewReader(bad), p164)
			if err != nil {
				if !IsCorrupt(err) {
					t.Fatalf("flip at %d.%d: error is not ErrCorrupt: %v", off, bit, err)
				}
				detected++
				continue
			}
			if snap.Owner() != want.Owner() || snap.FilledCount() != want.FilledCount() {
				t.Fatalf("flip at %d.%d loaded silently with altered state", off, bit)
			}
			harmless++
		}
	}
	if detected == 0 {
		t.Fatal("no flip was ever detected")
	}
	t.Logf("flips: %d detected, %d harmless", detected, harmless)
	if got := CorruptionsDetected(); got < before+uint64(detected) {
		t.Fatalf("CorruptionsDetected %d, want at least %d", got, before+uint64(detected))
	}
}

func TestTruncatedDumpCorrupt(t *testing.T) {
	tbl := sampleTable(t)
	var buf bytes.Buffer
	if err := SaveState(&buf, tbl.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for _, frac := range []int{0, 1, 2, 3} {
		cut := buf.Len() * frac / 4
		_, err := LoadState(bytes.NewReader(buf.Bytes()[:cut]), p164)
		if err == nil {
			t.Fatalf("dump truncated to %d/%d bytes loaded", cut, buf.Len())
		}
		if !IsCorrupt(err) {
			t.Fatalf("truncation to %d bytes not flagged corrupt: %v", cut, err)
		}
	}
}

func TestChecksumlessDumpIsCorrupt(t *testing.T) {
	// Every dump SaveState writes carries a crc32 field, so one without
	// it is damaged (a flip in the key leaves the sum unread) and a
	// restart must fall back to a fresh join, not trust the entries.
	in := `{"version":1,"b":16,"d":4,"owner":"0123","lo":0,"hi":3,"entries":[{"level":0,"digit":0,"id":"0123","state":"S"}]}`
	if _, err := LoadState(strings.NewReader(in), p164); !IsCorrupt(err) {
		t.Fatalf("LoadState of a checksumless dump: err = %v, want corrupt", err)
	}
	var buf bytes.Buffer
	if err := SaveState(&buf, sampleTable(t).Snapshot()); err != nil {
		t.Fatal(err)
	}
	renamed := strings.Replace(buf.String(), `"crc32"`, `"crc31"`, 1)
	if _, err := LoadState(strings.NewReader(renamed), p164); !IsCorrupt(err) {
		t.Fatalf("LoadState of a dump whose crc32 key was hit: err = %v, want corrupt", err)
	}
}

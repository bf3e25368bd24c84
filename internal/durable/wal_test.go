package durable

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/schema"
)

// damageCase is one damaged copy of a valid WAL and the committed prefix
// Open must keep from it: the first keep records, ending at byte end.
type damageCase struct {
	name string
	wal  []byte
	keep int
	end  int64
}

// TestOpenKeepsIntactPrefix damages a 3-record WAL in every way a crash
// or bit rot can — cut at every byte offset, or one byte flipped at
// every offset — and checks that Open keeps exactly the intact prefix,
// truncates the file to the prefix's end, and that Recover equals
// replaying that prefix in memory.
func TestOpenKeepsIntactPrefix(t *testing.T) {
	sc, a, ix, deltas := fixture(t, 3)
	seed := t.TempDir()
	s := seedStore(t, seed, sc, ix, deltas)
	s.Close()
	wal, err := os.ReadFile(filepath.Join(seed, walName))
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := os.ReadFile(s.checkpointPath(0))
	if err != nil {
		t.Fatal(err)
	}
	// ends[i] is the end offset of the first i records.
	ends := []int64{0}
	for off := 0; off < len(wal); {
		_, _, n, err := decodeWALRecord(wal[off:], sc)
		if err != nil {
			t.Fatal(err)
		}
		off += n
		ends = append(ends, int64(off))
	}
	if len(ends) != 4 {
		t.Fatalf("seeded WAL holds %d records, want 3", len(ends)-1)
	}
	want := []string{fingerprint(t, sc, ix)}
	for _, after := range applyAll(t, ix, deltas) {
		want = append(want, fingerprint(t, sc, after))
	}
	// intact is how many whole records the first n bytes hold.
	intact := func(n int64) int {
		k := 0
		for k < 3 && ends[k+1] <= n {
			k++
		}
		return k
	}

	var cases []damageCase
	for cut := 0; cut <= len(wal); cut++ {
		k := intact(int64(cut))
		cases = append(cases, damageCase{"cut", wal[:cut], k, ends[k]})
	}
	for i := range wal {
		bad := append([]byte(nil), wal...)
		bad[i] ^= 0x10
		k := intact(int64(i))
		cases = append(cases, damageCase{"flip", bad, k, ends[k]})
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, filepath.Base(s.checkpointPath(0))), ckpt, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		checkDamagedOpen(t, dir, sc, a, c, want[c.keep])
		if t.Failed() {
			return
		}
	}
}

// checkDamagedOpen writes c's WAL into dir, opens and recovers it.
func checkDamagedOpen(t *testing.T, dir string, sc *schema.Schema, a *access.Schema, c damageCase, want string) {
	t.Helper()
	walPath := filepath.Join(dir, walName)
	if err := os.WriteFile(walPath, c.wal, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("%s of %d bytes: Open: %v", c.name, len(c.wal), err)
	}
	defer s.Close()
	s.mu.Lock()
	n := len(s.recs)
	s.mu.Unlock()
	if n != c.keep {
		t.Errorf("%s of %d bytes: Open kept %d records, want %d", c.name, len(c.wal), n, c.keep)
	}
	fi, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != c.end {
		t.Errorf("%s of %d bytes: WAL is %d bytes after Open, want %d", c.name, len(c.wal), fi.Size(), c.end)
	}
	rec, err := s.Recover(context.Background(), sc, a, NoLimit)
	if err != nil {
		t.Fatalf("%s of %d bytes: Recover: %v", c.name, len(c.wal), err)
	}
	if rec.Version != uint64(c.keep) || fingerprint(t, sc, rec.Indexed) != want {
		t.Errorf("%s of %d bytes: recovered version %d, want the replay of the first %d records",
			c.name, len(c.wal), rec.Version, c.keep)
	}
}

// TestAppendAfterCompactionCut appends in the same process after a
// compaction that dropped a non-empty prefix of the WAL, so the append
// lands at an offset of the shifted ledger; a reopened store must
// recover through it.
func TestAppendAfterCompactionCut(t *testing.T) {
	sc, a, ix, deltas := fixture(t, 6)
	dir := t.TempDir()
	s := seedStore(t, dir, sc, ix, deltas[:3])
	after := applyAll(t, ix, deltas)
	// Checkpoints at 3 and then 5 retain {3, 5}; the second compaction
	// keeps the records after 3, dropping versions 1..3.
	if err := s.WriteCheckpoint(sc, &State{Instance: after[2].Instance, Indexed: after[2], Version: 3}); err != nil {
		t.Fatal(err)
	}
	for v := 4; v <= 5; v++ {
		if err := s.AppendDelta(uint64(v), deltas[v-1]); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	before := s.recs[len(s.recs)-1].end
	s.mu.Unlock()
	if err := s.WriteCheckpoint(sc, &State{Instance: after[4].Instance, Indexed: after[4], Version: 5}); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	compacted := s.recs[len(s.recs)-1].end
	s.mu.Unlock()
	if compacted >= before {
		t.Fatalf("compaction kept %d of %d bytes: nothing was cut", compacted, before)
	}
	if err := s.AppendDelta(6, deltas[5]); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	var versions []uint64
	for _, r := range s.recs {
		versions = append(versions, r.version)
	}
	end := s.recs[len(s.recs)-1].end
	s.mu.Unlock()
	if len(versions) != 3 || versions[0] != 4 || versions[2] != 6 {
		t.Fatalf("WAL holds versions %v, want [4 5 6]", versions)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, walName)); err != nil || fi.Size() != end {
		t.Fatalf("WAL file %v (%v), ledger ends at %d", fi.Size(), err, end)
	}

	s2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec, err := s2.Recover(context.Background(), sc, a, NoLimit)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Version != 6 || fingerprint(t, sc, rec.Indexed) != fingerprint(t, sc, after[5]) {
		t.Fatalf("recovered version %d, want the replay through version 6", rec.Version)
	}
}

// TestOpenAllocationIsBelowTheWAL pins that Open reads the log frame by
// frame: on a 2 000-record WAL it may allocate the ledger and one frame's
// buffers, but less than a quarter of the file — not a copy of it.
func TestOpenAllocationIsBelowTheWAL(t *testing.T) {
	_, _, _, deltas := fixture(t, 2000)
	var wal []byte
	for i, d := range deltas {
		frame, err := EncodeWALRecord(uint64(i+1), d)
		if err != nil {
			t.Fatal(err)
		}
		wal = append(wal, frame...)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walName), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := Open(dir, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if v, _ := s.LastVersion(); v != 2000 {
		t.Fatalf("Open found last version %d, want 2000", v)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= uint64(len(wal))/4 {
		t.Fatalf("Open allocated %d bytes on a %d-byte WAL (%.2fx), want below a quarter of it",
			got, len(wal), float64(got)/float64(len(wal)))
	}
}

// TestReplayAllocationIsAFewTimesTheWAL pins what replay costs on top
// of the records it decodes: over a 2 000-record WAL, records allocates
// at most 25 times the log, the decoded deltas included — not a fresh
// line buffer per record.
func TestReplayAllocationIsAFewTimesTheWAL(t *testing.T) {
	sc, _, _, deltas := fixture(t, 2000)
	dir := t.TempDir()
	s, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i, d := range deltas {
		if err := s.AppendDelta(uint64(i+1), d); err != nil {
			t.Fatal(err)
		}
	}
	fi, err := os.Stat(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := s.records(sc, 0, 2000)
	runtime.ReadMemStats(&after)
	if err != nil || len(got) != 2000 {
		t.Fatalf("records = %d deltas, %v; want 2000", len(got), err)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("replay allocated %d bytes on a %d-byte WAL (%.1fx)", alloc, fi.Size(), float64(alloc)/float64(fi.Size()))
	if alloc > 25*uint64(fi.Size()) {
		t.Fatalf("replay allocated %d bytes on a %d-byte WAL (%.1fx), want at most 25x",
			alloc, fi.Size(), float64(alloc)/float64(fi.Size()))
	}
}

// TestRecoverRefusesCheckpointPastTheWAL damages a record the newest
// checkpoint covers: with checkpoints {3, 6} and WAL {4, 5, 6}, a flipped
// byte in record 5 makes Open keep only {4}, so the newest readable
// checkpoint (6) is past the log's last version. Recover must refuse,
// not label checkpoint 6's state as version 4, and must leave
// checkpoint 6 on disk.
func TestRecoverRefusesCheckpointPastTheWAL(t *testing.T) {
	sc, a, ix, deltas := fixture(t, 6)
	dir := t.TempDir()
	s := seedStore(t, dir, sc, ix, deltas[:3])
	after := applyAll(t, ix, deltas)
	if err := s.WriteCheckpoint(sc, &State{Instance: after[2].Instance, Indexed: after[2], Version: 3}); err != nil {
		t.Fatal(err)
	}
	for v := 4; v <= 6; v++ {
		if err := s.AppendDelta(uint64(v), deltas[v-1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WriteCheckpoint(sc, &State{Instance: after[5].Instance, Indexed: after[5], Version: 6}); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	var versions []uint64
	for _, r := range s.recs {
		versions = append(versions, r.version)
	}
	mid := s.recs[0].end + (s.recs[1].end-s.recs[0].end)/2
	s.mu.Unlock()
	if len(versions) != 3 || versions[0] != 4 || versions[2] != 6 {
		t.Fatalf("WAL holds versions %v, want [4 5 6]", versions)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, walName)
	wal, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	wal[mid] ^= 0x10
	if err := os.WriteFile(walPath, wal, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, _ := s2.LastVersion(); v != 4 {
		t.Fatalf("Open kept records through version %d, want 4", v)
	}
	rec, err := s2.Recover(context.Background(), sc, a, NoLimit)
	if err == nil {
		t.Fatalf("Recover returned version %d over checkpoint 6 and a WAL ending at 4, want an error", rec.Version)
	}
	if want := "WAL replay reached version 6, expected 4"; !strings.Contains(err.Error(), want) {
		t.Fatalf("Recover: %v, want %q", err, want)
	}
	if _, err := os.Stat(s2.checkpointPath(6)); err != nil {
		t.Fatalf("checkpoint 6 after the refused Recover: %v", err)
	}
}

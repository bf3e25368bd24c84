package durable

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/data"
	"repro/internal/live"
	"repro/internal/schema"
	"repro/internal/value"
	"repro/internal/workload"
)

// fixture is a small accidents dataset, its built indexes, and a
// deterministic stream of constraint-preserving deltas.
func fixture(t *testing.T, n int) (*schema.Schema, *access.Schema, *access.Indexed, []*live.Delta) {
	t.Helper()
	acc, err := workload.GenerateAccidents(workload.AccidentConfig{
		Days: 2, AccidentsPerDay: 10, MaxVehicles: 3, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	ix, viols, err := access.BuildIndexed(acc.Access, acc.Instance)
	if err != nil || len(viols) > 0 {
		t.Fatalf("BuildIndexed: %v %v", err, viols)
	}
	st, err := workload.NewAccidentStream(acc, workload.AccidentStreamConfig{
		InsertAccidents: 3, DeleteAccidents: 1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	deltas := make([]*live.Delta, n)
	for i := range deltas {
		deltas[i] = st.Next()
	}
	return acc.Schema, acc.Access, ix, deltas
}

// applyAll replays deltas in memory, returning each intermediate
// Indexed (result[0] is after deltas[0]).
func applyAll(t *testing.T, ix *access.Indexed, deltas []*live.Delta) []*access.Indexed {
	t.Helper()
	out := make([]*access.Indexed, len(deltas))
	cur := ix
	for i, d := range deltas {
		res, err := live.Apply(context.Background(), d, cur)
		if err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
		cur = res.Indexed
		out[i] = cur
	}
	return out
}

// fingerprint renders an indexed instance bit-for-bit: relation tuples
// in scan order, then every index bucket in canonical order with
// multiplicities. Two states with equal fingerprints serve identical
// bytes for every query.
func fingerprint(t *testing.T, sc *schema.Schema, ix *access.Indexed) string {
	t.Helper()
	var b strings.Builder
	for _, rs := range sc.Relations() {
		fmt.Fprintf(&b, "[%s]\n", rs.Name)
		for _, tp := range ix.Instance.Relation(rs.Name).Tuples() {
			fmt.Fprintf(&b, "%s\n", tp.Key())
		}
	}
	for ci, c := range ix.Access.Constraints {
		fmt.Fprintf(&b, "[index %d %s]\n", ci, c)
		err := ix.Index(ci).Dump(func(k value.Key, projs []data.Tuple, _ []value.Key, counts []int) error {
			fmt.Fprintf(&b, "%q:", string(k))
			for i, p := range projs {
				fmt.Fprintf(&b, " %s*%d", p.Key(), counts[i])
			}
			b.WriteString("\n")
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

func TestWALRecordRoundTrip(t *testing.T) {
	sc, _, _, deltas := fixture(t, 1)
	frame, err := EncodeWALRecord(42, deltas[0])
	if err != nil {
		t.Fatal(err)
	}
	v, d, n, err := decodeWALRecord(frame, sc)
	if err != nil {
		t.Fatal(err)
	}
	if v != 42 || n != len(frame) {
		t.Fatalf("got version %d consumed %d, want 42 %d", v, n, len(frame))
	}
	if d.String() != deltas[0].String() || d.Len() != deltas[0].Len() {
		t.Fatalf("delta mismatch: %s vs %s", d, deltas[0])
	}
	// A flipped payload byte must fail the CRC.
	bad := append([]byte(nil), frame...)
	bad[len(bad)-1] ^= 0x01
	if _, _, _, err := decodeWALRecord(bad, sc); err == nil {
		t.Fatal("corrupted record decoded without error")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	sc, a, ix, deltas := fixture(t, 2)
	after := applyAll(t, ix, deltas)
	st := &State{Instance: after[1].Instance, Indexed: after[1], Version: 2}
	img, err := EncodeCheckpoint(sc, st)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCheckpoint(img, sc, a)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 2 {
		t.Fatalf("version %d, want 2", got.Version)
	}
	if want, have := fingerprint(t, sc, after[1]), fingerprint(t, sc, got.Indexed); want != have {
		t.Fatalf("checkpoint round trip changed the state:\nwant:\n%s\ngot:\n%s", want, have)
	}
	// A flipped byte anywhere in the payload must fail the CRC.
	bad := append([]byte(nil), img...)
	bad[len(bad)/2] ^= 0x40
	if _, err := DecodeCheckpoint(bad, sc, a); err == nil {
		t.Fatal("corrupted checkpoint decoded without error")
	}
}

func TestCheckpointCatalogMismatch(t *testing.T) {
	sc, _, ix, _ := fixture(t, 0)
	img, err := EncodeCheckpoint(sc, &State{Instance: ix.Instance, Indexed: ix, Version: 0})
	if err != nil {
		t.Fatal(err)
	}
	soc := workload.SocialConstraints(50, 10)
	if _, err := DecodeCheckpoint(img, workload.SocialSchema(), soc); err == nil {
		t.Fatal("checkpoint decoded under the wrong catalog")
	}
}

// TestCatalogHashIsStable pins the accidents catalog's fingerprint.
// Every checkpoint carries it, so a changed value would make every
// existing data directory unrecoverable.
func TestCatalogHashIsStable(t *testing.T) {
	if got := CatalogHash(workload.AccidentSchema(), workload.AccidentConstraints()); got != 0x3fd780f5 {
		t.Fatalf("accidents catalog fingerprint %08x, want 3fd780f5", got)
	}
}

// seedStore writes a base checkpoint at version 0 and appends deltas as
// versions 1..n, mirroring the engine's commit protocol.
func seedStore(t *testing.T, dir string, sc *schema.Schema, ix *access.Indexed, deltas []*live.Delta) *Store {
	t.Helper()
	s, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCheckpoint(sc, &State{Instance: ix.Instance, Indexed: ix, Version: 0}); err != nil {
		t.Fatal(err)
	}
	for i, d := range deltas {
		if err := s.AppendDelta(uint64(i+1), d); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestRecoverReplaysWAL(t *testing.T) {
	sc, a, ix, deltas := fixture(t, 4)
	dir := t.TempDir()
	s := seedStore(t, dir, sc, ix, deltas)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	after := applyAll(t, ix, deltas)
	s2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec, err := s2.Recover(context.Background(), sc, a, NoLimit)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Version != 4 {
		t.Fatalf("recovered version %d, want 4", rec.Version)
	}
	if want, have := fingerprint(t, sc, after[3]), fingerprint(t, sc, rec.Indexed); want != have {
		t.Fatalf("recovered state differs from in-memory replay:\nwant:\n%s\ngot:\n%s", want, have)
	}
}

func TestRecoverFreshDirIsNil(t *testing.T) {
	s, err := Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec, err := s.Recover(context.Background(), workload.AccidentSchema(), workload.AccidentConstraints(), NoLimit)
	if err != nil {
		t.Fatal(err)
	}
	if rec != nil {
		t.Fatalf("fresh dir recovered state at version %d", rec.Version)
	}
	if _, ok := s.LastVersion(); ok {
		t.Fatal("fresh dir reports a last version")
	}
}

func TestOpenTruncatesTornTail(t *testing.T) {
	sc, a, ix, deltas := fixture(t, 3)
	dir := t.TempDir()
	s := seedStore(t, dir, sc, ix, deltas)
	walPath := s.walPath()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Chop the last record in half: a torn tail from a crash mid-append.
	buf, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, buf[:len(buf)-len(buf)/4], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	v, ok := s2.LastVersion()
	if !ok || v != 2 {
		t.Fatalf("after torn tail, last version = %d/%v, want 2", v, ok)
	}
	rec, err := s2.Recover(context.Background(), sc, a, NoLimit)
	if err != nil {
		t.Fatal(err)
	}
	after := applyAll(t, ix, deltas[:2])
	if want, have := fingerprint(t, sc, after[1]), fingerprint(t, sc, rec.Indexed); want != have {
		t.Fatal("torn-tail recovery does not match replaying the intact prefix")
	}

	// And the next append continues from the truncated version.
	if err := s2.AppendDelta(3, deltas[2]); err != nil {
		t.Fatalf("append after torn-tail truncation: %v", err)
	}
}

func TestRecoverAtCutTruncatesDivergedSuffix(t *testing.T) {
	sc, a, ix, deltas := fixture(t, 4)
	dir := t.TempDir()
	s := seedStore(t, dir, sc, ix, deltas)
	all := applyAll(t, ix, deltas)

	// A coordinator cut at version 2: versions 3 and 4 were never part of
	// a completed cross-shard commit on some other shard — and neither was
	// the checkpoint this shard took of its own version 3 (given version
	// 4's content here, so that recovering it would show).
	if err := s.WriteCheckpoint(sc, &State{Instance: all[3].Instance, Indexed: all[3], Version: 3}); err != nil {
		t.Fatal(err)
	}
	rec, err := s.Recover(context.Background(), sc, a, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Version != 2 {
		t.Fatalf("recovered version %d, want 2", rec.Version)
	}
	if want, have := fingerprint(t, sc, all[1]), fingerprint(t, sc, rec.Indexed); want != have {
		t.Fatal("cut recovery does not match replay to the cut")
	}
	if v, _ := s.LastVersion(); v != 2 {
		t.Fatalf("diverged suffix not truncated: last version %d", v)
	}
	if vs := s.checkpointVersions(); len(vs) != 1 || vs[0] != 0 {
		t.Fatalf("checkpoints after the cut: %v, want [0] (the diverged one removed)", vs)
	}
	// Appends resume right after the cut, and the re-used version recovers
	// as what was appended, not as the diverged checkpoint.
	if err := s.AppendDelta(3, deltas[2]); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec, err = s2.Recover(context.Background(), sc, a, NoLimit)
	if err != nil {
		t.Fatal(err)
	}
	if want, have := fingerprint(t, sc, all[2]), fingerprint(t, sc, rec.Indexed); rec.Version != 3 || want != have {
		t.Fatalf("recovered version %d; state matches the re-appended version 3: %v", rec.Version, want == have)
	}
}

func TestCheckpointRetentionAndCompaction(t *testing.T) {
	sc, a, ix, deltas := fixture(t, 5)
	dir := t.TempDir()
	s := seedStore(t, dir, sc, ix, deltas[:3])
	after := applyAll(t, ix, deltas)

	// Checkpoint at 3: retained set {0, 3}, WAL compacted to records > 0.
	if err := s.WriteCheckpoint(sc, &State{Instance: after[2].Instance, Indexed: after[2], Version: 3}); err != nil {
		t.Fatal(err)
	}
	for i := 3; i < 5; i++ {
		if err := s.AppendDelta(uint64(i+1), deltas[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Checkpoint at 5: retained set {3, 5}, WAL compacted to records > 3.
	if err := s.WriteCheckpoint(sc, &State{Instance: after[4].Instance, Indexed: after[4], Version: 5}); err != nil {
		t.Fatal(err)
	}
	if vs := s.checkpointVersions(); len(vs) != 2 || vs[0] != 3 || vs[1] != 5 {
		t.Fatalf("retained checkpoints %v, want [3 5]", vs)
	}
	s.mu.Lock()
	recVersions := make([]uint64, len(s.recs))
	for i, r := range s.recs {
		recVersions[i] = r.version
	}
	s.mu.Unlock()
	if len(recVersions) != 2 || recVersions[0] != 4 || recVersions[1] != 5 {
		t.Fatalf("compacted WAL holds versions %v, want [4 5]", recVersions)
	}
	s.Close()

	// Corrupt the NEWEST checkpoint: recovery must fall back to 3 and
	// replay 4..5 from the compacted WAL.
	img, err := os.ReadFile(s.checkpointPath(5))
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)/3] ^= 0x08
	if err := os.WriteFile(s.checkpointPath(5), img, 0o644); err != nil {
		t.Fatal(err)
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
	if rec.Version != 5 {
		t.Fatalf("fallback recovery reached version %d, want 5", rec.Version)
	}
	if want, have := fingerprint(t, sc, after[4]), fingerprint(t, sc, rec.Indexed); want != have {
		t.Fatal("fallback recovery does not match in-memory replay")
	}
}

func TestResetWipesState(t *testing.T) {
	sc, a, ix, deltas := fixture(t, 2)
	dir := t.TempDir()
	s := seedStore(t, dir, sc, ix, deltas)
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.LastVersion(); ok {
		t.Fatal("reset store still reports durable state")
	}
	rec, err := s.Recover(context.Background(), sc, a, NoLimit)
	if err != nil || rec != nil {
		t.Fatalf("reset store recovered %v, %v", rec, err)
	}
	s.Close()
}

func TestAppendRejectsVersionGap(t *testing.T) {
	sc, _, ix, deltas := fixture(t, 2)
	s := seedStore(t, t.TempDir(), sc, ix, deltas[:1])
	defer s.Close()
	if err := s.AppendDelta(5, deltas[1]); err == nil {
		t.Fatal("append with a version gap succeeded")
	}
	if err := s.AppendDelta(2, deltas[1]); err != nil {
		t.Fatalf("sequential append refused: %v", err)
	}
}

func TestDumpWALGoldenShape(t *testing.T) {
	sc, _, ix, deltas := fixture(t, 2)
	dir := t.TempDir()
	s := seedStore(t, dir, sc, ix, deltas)
	s.Close()
	var b strings.Builder
	if err := DumpWAL(&b, dir, sc); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "record 1: version=1") || !strings.Contains(out, "record 2: version=2") {
		t.Fatalf("dump missing record headers:\n%s", out)
	}
	if !strings.HasSuffix(strings.TrimRight(out, "\n"), "bytes") {
		t.Fatalf("dump missing trailer:\n%s", out)
	}
}

// decodeWALRecord decodes the first frame in buf through the log's frame
// reader, returning the committed version, the delta and the frame's
// size in bytes.
func decodeWALRecord(buf []byte, sc *schema.Schema) (uint64, *live.Delta, int, error) {
	fr := &frameReader{r: bytes.NewReader(buf), end: int64(len(buf))}
	v, d, err := fr.readRecord(sc)
	return v, d, int(fr.off), err
}

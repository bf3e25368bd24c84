package durable

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// format1Dir is a data directory written by the format-1 WAL encoder
// (delta TSV payloads): seedStore's checkpoint at version 0 and fixture's
// first three deltas as versions 1..3. It is committed, never
// regenerated, so it keeps pinning what an older binary left on disk
// after the log format moves on; format1.dump is DumpWAL's rendering of
// it at the time it was written.
const format1Dir = "testdata/format1"

// copyFormat1 copies the committed format-1 directory into a fresh
// temporary one, since Open and Recover may rewrite what they open.
func copyFormat1(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	entries, err := os.ReadDir(format1Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(format1Dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestFormat1DirectoryRecovers recovers the committed format-1 directory
// and demands the state of replaying the same three deltas in memory
// onto the checkpoint's instance.
func TestFormat1DirectoryRecovers(t *testing.T) {
	sc, a, ix, deltas := fixture(t, 3)
	s, err := Open(copyFormat1(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec, err := s.Recover(context.Background(), sc, a, NoLimit)
	if err != nil {
		t.Fatal(err)
	}
	after := applyAll(t, ix, deltas)
	if rec.Version != 3 || fingerprint(t, sc, rec.Indexed) != fingerprint(t, sc, after[2]) {
		t.Fatalf("recovered version %d, want the replay of the 3 format-1 records onto checkpoint 0", rec.Version)
	}
}

// TestFormat1DumpIsUnchanged renders the committed format-1 log and
// demands the record lines it rendered when it was written, byte for
// byte.
func TestFormat1DumpIsUnchanged(t *testing.T) {
	sc, _, _, _ := fixture(t, 0)
	want, err := os.ReadFile("testdata/format1.dump")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	if err := DumpWAL(&got, format1Dir, sc); err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("DumpWAL of the format-1 log:\n%s\nwant:\n%s", got.String(), want)
	}
}

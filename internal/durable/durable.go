// Package durable persists the serving engine's state so a restart
// recovers every committed delta instead of re-ingesting TSV from
// scratch.
//
// A Store owns one directory holding two kinds of on-disk state:
//
//   - a delta WAL (wal.log): every committed delta is appended as a
//     length-prefixed, CRC32C-checksummed binary record carrying the
//     version it commits, and fsynced BEFORE the engine's atomic
//     snapshot swap. A record that made it to disk is committed; a
//     record cut short by a crash is a torn tail, detected by the
//     length/CRC frame and truncated away on Open. Every write lands at
//     an offset of the record ledger, and Open, replay, compaction and
//     -wal-dump read the log one frame at a time, never as a whole.
//
//   - snapshot checkpoints (checkpoint-<version>.ckpt): a compact
//     binary serialization of the instance AND the canonical-sorted
//     index buckets at one committed version, so recovery installs the
//     indexes verbatim (index.InstallBucketFlat) instead of re-running
//     Build's scan-and-sort. Checkpoints are written to a temp file,
//     fsynced, then atomically renamed; a crash mid-write leaves only
//     an ignored *.tmp. The two newest checkpoints are retained, and
//     the WAL is compacted to the older of them — so a corrupt newest
//     checkpoint still leaves a recoverable (older checkpoint + WAL)
//     pair.
//
// Recovery (Recover) = latest readable checkpoint + WAL replay: each
// record's delta goes through live.Replay, skipping re-validation — the
// delta was validated against the access schema when it was first
// committed, and replaying it cannot produce a state that was never
// live. The recovered (instance, indexes, version)
// triple is bit-for-bit the state the engine served at that version:
// relation tuple order, bucket order, and multiplicity counts all
// round-trip.
//
// Commit ordering (what survives kill -9): the engine appends and
// fsyncs the WAL record, THEN publishes the in-memory snapshot. A crash
// before the fsync completes recovers the pre-delta version (torn tail
// truncated); after it, the post-delta version. There is no window in
// which a torn, never-committed state can be recovered — the
// crash-injection suite kills the process at every fsync/rename
// boundary and checks exactly that.
//
// A WAL record's body is live's binary delta (format 2; format-1
// records, delta TSV, still replay) and checkpoint tuples are their
// length-prefixed value.Key encodings: one encoding, read by one
// value.Decoder. Both container formats have their own fuzz harnesses
// (FuzzWALRecord, FuzzCheckpoint).
package durable

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/access"
	"repro/internal/schema"
)

// Hook is the crash-injection failpoint: when non-nil it is called with
// a named point at every durability boundary (see the Point* constants).
// The crash suite installs a hook that kills the process at one point;
// production passes nil. Hooks run with the Store's internal locks held
// and must not call back into the Store.
type Hook func(point string)

// The failpoints, in the order they fire.
const (
	// PointWALWritten: a WAL record is written but not yet fsynced — a
	// crash here may or may not surface the record after recovery
	// (either way it is a clean pre- or post-delta state).
	PointWALWritten = "wal.written"
	// PointWALSynced: the WAL record is durable; the snapshot swap has
	// not happened yet. A crash here MUST recover the post-delta state.
	PointWALSynced = "wal.synced"
	// PointCheckpointWritten: the checkpoint temp file is written, not
	// yet fsynced.
	PointCheckpointWritten = "ckpt.written"
	// PointCheckpointSynced: the temp file is durable, not yet renamed.
	PointCheckpointSynced = "ckpt.synced"
	// PointCheckpointRenamed: the checkpoint is atomically in place; WAL
	// compaction and old-checkpoint removal have not run.
	PointCheckpointRenamed = "ckpt.renamed"
	// PointWALCompacted: the compacted WAL temp file is durable, not yet
	// renamed over wal.log.
	PointWALCompacted = "wal.compacted"
)

// Points lists every failpoint, for test matrices.
var Points = []string{
	PointWALWritten, PointWALSynced,
	PointCheckpointWritten, PointCheckpointSynced, PointCheckpointRenamed,
	PointWALCompacted,
}

// NoLimit recovers through the whole WAL (the single-node case); a
// sharded coordinator passes the minimum cross-shard version instead.
const NoLimit = ^uint64(0)

// ErrNotDurable reports a durability operation (a checkpoint) on a
// partition that was never given a data directory; wire surfaces map it
// to a structured refusal instead of a 500.
var ErrNotDurable = errors.New("durable: partition has no durable store")

// crcTable is the Castagnoli (CRC32C) polynomial table both on-disk
// formats checksum with.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

const (
	walName = "wal.log"
	// ckptPrefix/ckptSuffix frame checkpoint filenames:
	// checkpoint-%016x.ckpt, hex so lexical order is version order.
	ckptPrefix = "checkpoint-"
	ckptSuffix = ".ckpt"
)

// Store owns one durability directory: the open WAL plus its checkpoint
// set. A Store is safe for concurrent use; appends are serialized by
// the engine's write lock anyway, and checkpoint writes may run in the
// background while appends continue.
type Store struct {
	dir  string
	hook Hook

	// mu guards the WAL file handle and the record ledger; checkpoint
	// temp-file writing runs outside it (it reads only the caller's
	// pinned immutable snapshot), taking mu just for the final
	// rename-and-compact step.
	mu sync.Mutex
	// wal is the open log. Every read and write names its offset, so
	// the handle's own file offset is never used. guarded by mu.
	wal *os.File
	// recs is the ledger of committed records: version and end offset of
	// each, in file order — what torn-tail truncation, replay and
	// compaction navigate by. guarded by mu.
	recs []recMeta
	// ckptMu serializes checkpoint writers.
	ckptMu sync.Mutex
}

// recMeta locates one committed WAL record.
type recMeta struct {
	version uint64
	// end is the file offset just past the record's frame.
	end int64
}

// fire triggers the named failpoint.
func (s *Store) fire(point string) {
	if s.hook != nil {
		s.hook(point)
	}
}

// Open opens (creating if needed) the durability directory: stale temp
// files are removed, and the WAL is scanned into the record ledger and
// any torn tail truncated away. hook installs
// crash-injection failpoints; pass nil outside tests.
//
// The store is unpublished until Open returns, so no lock is needed for
// the field writes here.
//
//bevet:locked mu
func Open(dir string, hook Hook) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	s := &Store{dir: dir, hook: hook}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return nil, fmt.Errorf("durable: removing stale temp file: %w", err)
			}
		}
	}
	f, err := os.OpenFile(s.walPath(), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	s.wal = f
	if err := s.scanWAL(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

func (s *Store) walPath() string { return filepath.Join(s.dir, walName) }

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Close releases the WAL handle. It does not sync: every committed
// record was already fsynced by AppendDelta.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	err := s.wal.Close()
	s.wal = nil
	return err
}

// lastVersionLocked is the newest committed version on disk: the last
// WAL record's, or failing that the newest checkpoint's.
//
//bevet:locked mu
func (s *Store) lastVersionLocked() (uint64, bool) {
	if n := len(s.recs); n > 0 {
		return s.recs[n-1].version, true
	}
	if vs := s.checkpointVersions(); len(vs) > 0 {
		return vs[len(vs)-1], true
	}
	return 0, false
}

// LastVersion peeks the newest committed version without replaying
// anything — the coordinator uses it to compute the consistent
// cross-shard cut before recovering any shard. ok is false when the
// directory holds no durable state at all (a fresh store).
func (s *Store) LastVersion() (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastVersionLocked()
}

// checkpointVersions lists the versions of the on-disk checkpoints,
// ascending. Unparseable names are ignored.
func (s *Store) checkpointVersions() []uint64 {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	var out []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptSuffix) {
			continue
		}
		var v uint64
		if _, err := fmt.Sscanf(strings.TrimSuffix(strings.TrimPrefix(name, ckptPrefix), ckptSuffix), "%016x", &v); err != nil {
			continue
		}
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (s *Store) checkpointPath(version uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%016x%s", ckptPrefix, version, ckptSuffix))
}

// Reset wipes every checkpoint and truncates the WAL — the prelude to a
// Load, which replaces the dataset and restarts the version history at
// a fresh base checkpoint. Versions restart at 0, so stale records must
// not survive to replay onto the new base.
func (s *Store) Reset() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, v := range s.checkpointVersions() {
		if err := os.Remove(s.checkpointPath(v)); err != nil {
			return fmt.Errorf("durable: reset: %w", err)
		}
	}
	if err := s.wal.Truncate(0); err != nil {
		return fmt.Errorf("durable: reset: %w", err)
	}
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("durable: reset: %w", err)
	}
	s.recs = nil
	return s.syncDir()
}

// syncDir fsyncs the directory so renames and removals are durable.
func (s *Store) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	return nil
}

// CatalogHash fingerprints the (relational schema, access schema) pair.
// Every checkpoint records the one it was written under, so recovery
// under a different catalog fails loudly instead of mis-decoding
// positionally; a coordinator refuses a partition that reports another
// one, since placement and constraint indices derive from the catalog.
func CatalogHash(s *schema.Schema, a *access.Schema) uint32 {
	var b strings.Builder
	for _, rs := range s.Relations() {
		b.WriteString(rs.Name)
		b.WriteByte('(')
		for i, attr := range rs.Attrs {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(string(attr))
		}
		b.WriteString(")\n")
	}
	b.WriteString(a.String())
	return crc32.Checksum([]byte(b.String()), crcTable)
}

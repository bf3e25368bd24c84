package durable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"repro/internal/access"
	"repro/internal/data"
	"repro/internal/index"
	"repro/internal/schema"
	"repro/internal/value"
)

// Checkpoint file layout, little-endian:
//
//	magic "BECKPT01" | u32 payloadLen | u32 crc32c(payload) | payload
//
// payload:
//
//	u8  ckptFormatVersion (=1)
//	uvarint version
//	u32 CatalogHash                      (schema+access fingerprint)
//	relation sections, in schema order, each length-prefixed
//	(uvarint sectionLen | section):
//	    uvarint nameLen | name
//	    uvarint numTuples
//	    per tuple: uvarint keyLen | value.KeyOf(tuple) bytes
//	index sections, one per access constraint, in constraint order,
//	each length-prefixed:
//	    uvarint numBuckets
//	    uvarint numPairs                 (total projections, a presize hint)
//	    per bucket (sorted X-key order, as index.Dump emits):
//	        uvarint keyLen | raw X-key bytes
//	        uvarint numProjections
//	        per projection: uvarint keyLen | value.KeyOf(projection)
//	        bytes, then uvarint multiplicity count
//
// Tuples and projections are stored AS their canonical value.Key
// encodings — the injective kind-tagged byte string every index probe
// already computes. Decode gets both the values (value.Decoder's cells)
// and the dedup-map / bucket keys from one blob with no per-cell text
// parsing and no key re-encoding, which is what makes recovery beat a
// cold TSV re-ingest (benchmark/ measures it as durable.recover_s). The
// decoder rejects non-canonical varint paddings, so decode-then-encode
// is still a byte-for-byte fixed point (FuzzCheckpoint).
//
// The section length prefixes exist for decode parallelism: every
// section fills disjoint state (one relation, or one constraint's
// index), so decode carves the payload into sections up front and runs
// them concurrently — restore speed then scales with cores, which a
// sequential cold ingest cannot do.
//
// Tuples are serialized in relation row order and bulk-installed in that
// order on decode, and buckets install verbatim via index.InstallBucketFlat
// — so a recovered snapshot's scan order, bucket order, and
// multiplicities are bit-for-bit those of the snapshot that was
// checkpointed. That is what lets the crash suite demand byte-identical
// query output.

const (
	ckptFormatVersion = 1
	// maxCkptPayload bounds a checkpoint payload; a length above it is
	// corruption.
	maxCkptPayload = 1 << 31
)

var ckptMagic = []byte("BECKPT01")

// State is one recovered (or to-be-checkpointed) engine snapshot: the
// instance/index pair plus the committed version it represents.
type State struct {
	Instance *data.Instance
	Indexed  *access.Indexed
	Version  uint64
}

// EncodeCheckpoint renders the full checkpoint file image for st.
func EncodeCheckpoint(sc *schema.Schema, st *State) ([]byte, error) {
	// The header's length and CRC are filled in once the payload is
	// known.
	head := len(ckptMagic) + frameHeader
	p := append(append(make([]byte, 0, 4096), ckptMagic...), make([]byte, frameHeader)...)
	p = append(p, ckptFormatVersion)
	p = binary.AppendUvarint(p, st.Version)
	p = binary.LittleEndian.AppendUint32(p, CatalogHash(sc, st.Indexed.Access))

	var sect, kb []byte
	for _, rs := range sc.Relations() {
		r := st.Instance.Relation(rs.Name)
		if r == nil {
			return nil, fmt.Errorf("durable: instance has no relation %s", rs.Name)
		}
		sect = binary.AppendUvarint(value.AppendBytes(sect[:0], rs.Name), uint64(r.Len()))
		for ri := 0; ri < r.Len(); ri++ {
			kb = r.AppendRowKey(kb[:0], ri)
			sect = value.AppendBytes(sect, kb)
		}
		p = value.AppendBytes(p, sect)
	}

	for ci := range st.Indexed.Access.Constraints {
		ix := st.Indexed.Index(ci)
		// Count buckets and pairs first: Dump visits in sorted key order
		// both times. The totals go in the file so decode can presize its
		// maps before installing.
		buckets, pairs := 0, 0
		err := ix.Dump(func(_ value.Key, projs []data.Tuple, _ []value.Key, _ []int) error {
			buckets++
			pairs += len(projs)
			return nil
		})
		if err != nil {
			return nil, err
		}
		sect = binary.AppendUvarint(binary.AppendUvarint(sect[:0], uint64(buckets)), uint64(pairs))
		err = ix.Dump(func(k value.Key, projs []data.Tuple, projKeys []value.Key, counts []int) error {
			sect = binary.AppendUvarint(value.AppendBytes(sect, k), uint64(len(projs)))
			for i := range projs {
				sect = binary.AppendUvarint(value.AppendBytes(sect, projKeys[i]), uint64(counts[i]))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		p = value.AppendBytes(p, sect)
	}

	payload := p[head:]
	if len(payload) > maxCkptPayload {
		return nil, fmt.Errorf("durable: checkpoint of %d bytes exceeds limit", len(payload))
	}
	binary.LittleEndian.PutUint32(p[len(ckptMagic):], uint32(len(payload)))
	binary.LittleEndian.PutUint32(p[len(ckptMagic)+4:], crc32.Checksum(payload, crcTable))
	return p, nil
}

// DecodeCheckpoint parses a checkpoint file image, rebuilding the
// instance and installing the serialized index buckets verbatim. It
// never panics on arbitrary input; any structural violation — bad
// magic, CRC mismatch, catalog mismatch, non-canonical bucket order,
// trailing garbage — is an error.
func DecodeCheckpoint(buf []byte, sc *schema.Schema, a *access.Schema) (*State, error) {
	if len(buf) < len(ckptMagic)+frameHeader {
		return nil, fmt.Errorf("durable: checkpoint header: %w", io.ErrUnexpectedEOF)
	}
	if !bytes.Equal(buf[:len(ckptMagic)], ckptMagic) {
		return nil, fmt.Errorf("durable: bad checkpoint magic")
	}
	hdr := buf[len(ckptMagic):]
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if uint64(n) > maxCkptPayload {
		return nil, fmt.Errorf("durable: checkpoint claims %d bytes, limit %d", n, maxCkptPayload)
	}
	if uint64(len(hdr)-frameHeader) != uint64(n) {
		return nil, fmt.Errorf("durable: checkpoint payload is %d bytes, header says %d", len(hdr)-frameHeader, n)
	}
	payload := hdr[frameHeader:]
	if got, want := crc32.Checksum(payload, crcTable), binary.LittleEndian.Uint32(hdr[4:8]); got != want {
		return nil, fmt.Errorf("durable: checkpoint checksum mismatch (%08x != %08x)", got, want)
	}

	// One string conversion up front; every section, tuple and key
	// below is then a zero-copy substring of it.
	r := value.NewDecoder(string(payload))
	if fv := r.Byte(); r.Err() == nil && fv != ckptFormatVersion {
		return nil, fmt.Errorf("durable: checkpoint format version %d, want %d", fv, ckptFormatVersion)
	}
	version := r.Uvarint()
	ch := r.Uint32()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("durable: checkpoint payload: %w", err)
	}
	if want := CatalogHash(sc, a); ch != want {
		return nil, fmt.Errorf("durable: checkpoint catalog hash %08x, running catalog %08x — was it written under a different schema?", ch, want)
	}

	// Carve the payload into its length-prefixed sections, then decode
	// them concurrently: each section fills disjoint state (one relation
	// of inst, or one slot of idxs), so the only synchronization needed
	// is the WaitGroup. Errors land in per-section slots and the first
	// one (in section order, for determinism) wins.
	rels := sc.Relations()
	sections := make([]string, len(rels)+len(a.Constraints))
	for i := range sections {
		sections[i] = r.Bytes()
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("durable: checkpoint payload: %w", err)
	}

	inst := data.NewInstance(sc)
	idxs := make([]*index.Index, len(a.Constraints))
	errs := make([]error, len(sections))
	var wg sync.WaitGroup
	for i, rs := range rels {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = decodeRelationSection(sections[i], rs, inst)
		}()
	}
	for ci, c := range a.Constraints {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ix, err := decodeIndexSection(sections[len(rels)+ci], sc, c)
			idxs[ci] = ix
			errs[len(rels)+ci] = err
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	indexed, err := access.RestoreIndexed(a, inst, idxs)
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	return &State{Instance: inst, Indexed: indexed, Version: version}, nil
}

// decodeRelationSection restores one relation of inst from its
// checkpoint section.
func decodeRelationSection(sec string, rs schema.Relation, inst *data.Instance) error {
	r := value.NewDecoder(sec)
	if name := r.Bytes(); r.Err() == nil && name != rs.Name {
		return fmt.Errorf("durable: checkpoint relation %q, schema expects %s", name, rs.Name)
	}
	// Claimed counts are attacker-controlled; a tuple blob takes at
	// least one payload byte (arity one per value), so Count bounds
	// honest preallocation exactly. The blob substrings ARE the tuples:
	// InstallKeys decodes their cells straight into the columns, so no
	// []Tuple is materialized here at all.
	keys := make([]value.Key, r.Count(1))
	for i := range keys {
		keys[i] = value.Key(r.Bytes())
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("durable: checkpoint relation section %s: %w", rs.Name, err)
	}
	if err := inst.Relation(rs.Name).InstallKeys(keys); err != nil {
		return fmt.Errorf("durable: checkpoint tuples: %w", err)
	}
	return nil
}

// decodeIndexSection restores one constraint's index from its
// checkpoint section.
func decodeIndexSection(sec string, sc *schema.Schema, c access.Constraint) (*index.Index, error) {
	rs, ok := sc.Relation(c.Rel)
	if !ok {
		return nil, fmt.Errorf("durable: constraint %s over unknown relation", c)
	}
	ix, err := index.New(rs, c.X, c.Y)
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	r := value.NewDecoder(sec)
	nb := r.Count(1)
	// Presize the index maps from the file's own totals, clamped by
	// the bytes actually left in the payload.
	npairs := min(r.Uvarint(), uint64(r.Len()))
	ix.Grow(nb, int(npairs))
	// Buckets here are tiny (bounded by the constraint's cardinality) and
	// numerous, so everything per-bucket is carved out of section-wide
	// arenas: projection cells are decoded straight into flat storage the
	// index takes ownership of (InstallBucketFlat), and the key/count
	// slices ride section arenas too — a restore costs a handful of
	// allocations per section, not several per bucket.
	arena := make([]value.Value, 0, min(int(npairs)*len(c.Y), r.Len()))
	keyArena := make([]value.Key, 0, npairs)
	countArena := make([]int, 0, npairs)
	for range nb {
		key := r.Bytes()
		np := r.Count(1)
		astart, kstart, cstart := len(arena), len(keyArena), len(countArena)
		for range np {
			pk := r.Bytes()
			proj := value.NewDecoder(pk)
			for range c.Y {
				arena = append(arena, proj.Cell())
			}
			if err := proj.Done(); err != nil {
				r.Fail("projection is not %d cells: %v", len(c.Y), err)
			}
			cnt := r.Uvarint()
			if cnt == 0 || cnt > maxCkptPayload {
				r.Fail("multiplicity %d out of range", cnt)
			}
			keyArena = append(keyArena, value.Key(pk))
			countArena = append(countArena, int(cnt))
		}
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("durable: checkpoint index section for %s: %w", c, err)
		}
		err = ix.InstallBucketFlat(value.Key(key),
			arena[astart:len(arena):len(arena)],
			keyArena[kstart:len(keyArena):len(keyArena)],
			countArena[cstart:len(countArena):len(countArena)])
		if err != nil {
			return nil, fmt.Errorf("durable: %w", err)
		}
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("durable: checkpoint index section for %s: %w", c, err)
	}
	return ix, nil
}

// WriteCheckpoint persists st as a checkpoint: temp-file write, fsync,
// atomic rename, directory fsync. Encoding reads only the caller's
// pinned immutable snapshot, so it runs concurrently with appends and
// readers — only the final rename-and-compact step touches the WAL
// lock. Afterwards the two newest checkpoints are retained, older ones
// removed, and the WAL compacted so it only holds records newer than
// the OLDER retained checkpoint — keeping a fallback chain in case the
// newest checkpoint is unreadable on recovery.
func (s *Store) WriteCheckpoint(sc *schema.Schema, st *State) error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()

	img, err := EncodeCheckpoint(sc, st)
	if err != nil {
		return err
	}
	final := s.checkpointPath(st.Version)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if _, err := f.Write(img); err != nil {
		f.Close()
		return fmt.Errorf("durable: writing checkpoint: %w", err)
	}
	s.fire(PointCheckpointWritten)
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("durable: syncing checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	s.fire(PointCheckpointSynced)
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("durable: publishing checkpoint: %w", err)
	}
	if err := s.syncDir(); err != nil {
		return err
	}
	s.fire(PointCheckpointRenamed)

	// Retention: keep the two newest checkpoints, then compact the WAL
	// down to records the older retained checkpoint still needs.
	vs := s.checkpointVersions()
	for len(vs) > 2 {
		if err := os.Remove(s.checkpointPath(vs[0])); err != nil {
			return fmt.Errorf("durable: pruning checkpoint: %w", err)
		}
		vs = vs[1:]
	}
	if err := s.syncDir(); err != nil {
		return err
	}
	return s.compactLocked(vs[0])
}

// readCheckpoint loads and decodes the checkpoint at version v.
func (s *Store) readCheckpoint(v uint64, sc *schema.Schema, a *access.Schema) (*State, error) {
	buf, err := os.ReadFile(s.checkpointPath(v))
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	st, err := DecodeCheckpoint(buf, sc, a)
	if err != nil {
		return nil, err
	}
	if st.Version != v {
		return nil, fmt.Errorf("durable: checkpoint file %s holds version %d", s.checkpointPath(v), st.Version)
	}
	return st, nil
}

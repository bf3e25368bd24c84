package durable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/live"
	"repro/internal/schema"
)

// WAL frame layout, little-endian:
//
//	u32 payloadLen | u32 crc32c(payload) | payload
//
// payload:
//
//	u8 walFormatVersion (=1) | uvarint commitVersion | delta TSV bytes
//
// The delta body reuses the delta TSV format verbatim
// (live.WriteDeltaTSV / live.ReadDeltaTSV), so the WAL inherits the
// fuzz-hardened cell codec and -wal-dump can render records without a
// second decoder. Any frame that fails the length or CRC check — a
// torn tail from a crash mid-append — marks the end of the committed
// log; everything before it is intact by construction (appends are
// fsynced in order).

const (
	walFormatVersion = 1
	// maxWALPayload bounds a single record; a length field above it is
	// corruption, not a huge delta.
	maxWALPayload = 1 << 28
	frameHeader   = 8 // payloadLen + crc
)

// EncodeWALRecord renders one framed WAL record for d committing
// version.
func EncodeWALRecord(version uint64, d *live.Delta) ([]byte, error) {
	var payload bytes.Buffer
	payload.WriteByte(walFormatVersion)
	var vbuf [binary.MaxVarintLen64]byte
	payload.Write(vbuf[:binary.PutUvarint(vbuf[:], version)])
	if err := live.WriteDeltaTSV(&payload, d); err != nil {
		return nil, fmt.Errorf("durable: encoding delta: %w", err)
	}
	p := payload.Bytes()
	if len(p) > maxWALPayload {
		return nil, fmt.Errorf("durable: WAL record of %d bytes exceeds limit", len(p))
	}
	frame := make([]byte, frameHeader+len(p))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(p)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(p, crcTable))
	copy(frame[frameHeader:], p)
	return frame, nil
}

// DecodeWALRecord decodes the first framed record in buf, returning the
// committed version, the delta, and how many bytes the frame consumed.
// It never panics on arbitrary input: any malformed frame — short
// header, oversized or short payload, CRC mismatch, bad payload — is an
// error. io.ErrUnexpectedEOF specifically means "frame cut short", the
// torn-tail signature.
func DecodeWALRecord(buf []byte, s *schema.Schema) (version uint64, d *live.Delta, consumed int, err error) {
	if len(buf) < frameHeader {
		return 0, nil, 0, fmt.Errorf("durable: WAL frame header: %w", io.ErrUnexpectedEOF)
	}
	n := binary.LittleEndian.Uint32(buf[0:4])
	if n > maxWALPayload {
		return 0, nil, 0, fmt.Errorf("durable: WAL record claims %d bytes, limit %d", n, maxWALPayload)
	}
	if len(buf) < frameHeader+int(n) {
		return 0, nil, 0, fmt.Errorf("durable: WAL payload: %w", io.ErrUnexpectedEOF)
	}
	payload := buf[frameHeader : frameHeader+int(n)]
	if got, want := crc32.Checksum(payload, crcTable), binary.LittleEndian.Uint32(buf[4:8]); got != want {
		return 0, nil, 0, fmt.Errorf("durable: WAL record checksum mismatch (%08x != %08x)", got, want)
	}
	if len(payload) == 0 {
		return 0, nil, 0, fmt.Errorf("durable: empty WAL payload")
	}
	if payload[0] != walFormatVersion {
		return 0, nil, 0, fmt.Errorf("durable: WAL format version %d, want %d", payload[0], walFormatVersion)
	}
	v, vn := binary.Uvarint(payload[1:])
	if vn <= 0 {
		return 0, nil, 0, fmt.Errorf("durable: bad WAL commit version varint")
	}
	d, err = live.ReadDeltaTSV(bytes.NewReader(payload[1+vn:]), s)
	if err != nil {
		return 0, nil, 0, fmt.Errorf("durable: WAL delta: %w", err)
	}
	return v, d, frameHeader + int(n), nil
}

// scanWAL walks the log from offset 0, validating each frame and
// rebuilding the record ledger. The first malformed frame is treated as
// a torn tail: the file is truncated at the last intact frame boundary.
// Frame validation here checks length and CRC only — payload decoding
// belongs to replay, which has the schema.
func (s *Store) scanWAL() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	buf, err := readAll(s.wal)
	if err != nil {
		return fmt.Errorf("durable: reading WAL: %w", err)
	}
	var good int64
	s.recs = nil
	for off := 0; off < len(buf); {
		rest := buf[off:]
		if len(rest) < frameHeader {
			break
		}
		n := binary.LittleEndian.Uint32(rest[0:4])
		if n > maxWALPayload || len(rest) < frameHeader+int(n) {
			break
		}
		payload := rest[frameHeader : frameHeader+int(n)]
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(rest[4:8]) {
			break
		}
		v, ok := peekVersion(payload)
		if !ok {
			break
		}
		off += frameHeader + int(n)
		good = int64(off)
		s.recs = append(s.recs, recMeta{version: v, end: good})
	}
	if good < int64(len(buf)) {
		if err := s.truncateLocked(good); err != nil {
			return err
		}
	}
	if _, err := s.wal.Seek(good, io.SeekStart); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	return nil
}

// peekVersion reads the commit version out of a CRC-validated payload.
func peekVersion(payload []byte) (uint64, bool) {
	if len(payload) == 0 || payload[0] != walFormatVersion {
		return 0, false
	}
	v, vn := binary.Uvarint(payload[1:])
	return v, vn > 0
}

// readAll reads f from the start without disturbing concurrent state;
// the caller repositions the handle afterwards.
func readAll(f *os.File) ([]byte, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	return io.ReadAll(f)
}

// truncateLocked cuts the WAL (and its ledger) back to size off.
//
//bevet:locked mu
func (s *Store) truncateLocked(off int64) error {
	if err := s.wal.Truncate(off); err != nil {
		return fmt.Errorf("durable: truncating torn WAL tail: %w", err)
	}
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	for len(s.recs) > 0 && s.recs[len(s.recs)-1].end > off {
		s.recs = s.recs[:len(s.recs)-1]
	}
	return nil
}

// AppendDelta appends one committed delta and fsyncs before returning —
// the engine's durability point. By the time AppendDelta returns nil,
// the record survives kill -9; the caller then (and only then) swaps
// the in-memory snapshot. version must be exactly one past the newest
// durable version. A write or sync failure rolls the file back to the
// previous record boundary so the log never ends mid-frame.
func (s *Store) AppendDelta(version uint64, d *live.Delta) error {
	frame, err := EncodeWALRecord(version, d)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return fmt.Errorf("durable: store is closed")
	}
	if last, ok := s.lastVersionLocked(); ok && version != last+1 {
		return fmt.Errorf("durable: appending version %d after %d", version, last)
	}
	var start int64
	if n := len(s.recs); n > 0 {
		start = s.recs[n-1].end
	}
	if _, err := s.wal.WriteAt(frame, start); err != nil {
		_ = s.truncateLocked(start)
		return fmt.Errorf("durable: WAL append: %w", err)
	}
	s.fire(PointWALWritten)
	if err := s.wal.Sync(); err != nil {
		_ = s.truncateLocked(start)
		return fmt.Errorf("durable: WAL sync: %w", err)
	}
	s.fire(PointWALSynced)
	s.recs = append(s.recs, recMeta{version: version, end: start + int64(len(frame))})
	return nil
}

// records decodes the committed WAL records with from < version <= to,
// in order. Frames outside the range are skipped by the ledger scanWAL
// built — their boundaries and versions are known and their CRCs were
// already validated on open, so checkpoint-covered records cost nothing
// at replay time. Decoding errors here mean on-disk corruption past the
// CRC (or a schema mismatch) and abort recovery rather than guessing.
func (s *Store) records(sc *schema.Schema, from, to uint64) ([]walRecord, error) {
	s.mu.Lock()
	buf, err := readAll(s.wal)
	var metas []recMeta
	if err == nil {
		metas = append([]recMeta(nil), s.recs...)
		var end int64
		if n := len(metas); n > 0 {
			end = metas[n-1].end
		}
		buf = buf[:end]
		_, err = s.wal.Seek(end, io.SeekStart)
	}
	s.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("durable: reading WAL: %w", err)
	}
	var out []walRecord
	prev := int64(0)
	for _, m := range metas {
		frame := buf[prev:m.end]
		prev = m.end
		if m.version <= from || m.version > to {
			continue
		}
		v, d, _, err := DecodeWALRecord(frame, sc)
		if err != nil {
			return nil, err
		}
		if v != m.version {
			return nil, fmt.Errorf("durable: WAL frame holds version %d, ledger says %d", v, m.version)
		}
		out = append(out, walRecord{version: v, delta: d})
	}
	return out, nil
}

type walRecord struct {
	version uint64
	delta   *live.Delta
}

// TruncateAfter drops every committed record with version > v, and
// every checkpoint of such a version — the diverged suffix a shard may
// hold when a crash (or an I/O error on a later shard) interrupted a
// cross-shard commit partway through the fan-out. What is dropped was
// never part of a completed global commit, so no recovered state
// references it; removing it lets future appends at v+1 proceed.
// Checkpoints go first: a crash in between leaves the suffix whole (to
// be truncated again), never an orphaned checkpoint of a version the WAL
// is about to re-use — recovery would prefer it to the real record.
func (s *Store) TruncateAfter(v uint64) error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	removed := false
	for _, cv := range s.checkpointVersions() {
		if cv > v {
			if err := os.Remove(s.checkpointPath(cv)); err != nil {
				return fmt.Errorf("durable: removing diverged checkpoint: %w", err)
			}
			removed = true
		}
	}
	if removed {
		if err := s.syncDir(); err != nil {
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cut := int64(0)
	for _, r := range s.recs {
		if r.version > v {
			break
		}
		cut = r.end
	}
	if n := len(s.recs); n > 0 && s.recs[n-1].end == cut {
		return nil
	}
	if err := s.truncateLocked(cut); err != nil {
		return err
	}
	if _, err := s.wal.Seek(cut, io.SeekStart); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	return nil
}

// compactLocked rewrites the WAL keeping only records with
// version > keep, via temp file + fsync + atomic rename. Called with
// ckptMu held; takes mu itself around the swap.
func (s *Store) compactLocked(keep uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	buf, err := readAll(s.wal)
	if err != nil {
		return fmt.Errorf("durable: reading WAL for compaction: %w", err)
	}
	var kept []byte
	var keptRecs []recMeta
	off := int64(0)
	prev := int64(0)
	for _, r := range s.recs {
		frame := buf[prev:r.end]
		prev = r.end
		if r.version > keep {
			kept = append(kept, frame...)
			off += int64(len(frame))
			keptRecs = append(keptRecs, recMeta{version: r.version, end: off})
		}
	}
	tmp := s.walPath() + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if _, err := f.Write(kept); err != nil {
		f.Close()
		return fmt.Errorf("durable: compacting WAL: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("durable: compacting WAL: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("durable: compacting WAL: %w", err)
	}
	s.fire(PointWALCompacted)
	if err := os.Rename(tmp, s.walPath()); err != nil {
		return fmt.Errorf("durable: compacting WAL: %w", err)
	}
	if err := s.syncDir(); err != nil {
		return err
	}
	// The open handle still points at the unlinked old inode; reopen.
	nf, err := os.OpenFile(s.walPath(), os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("durable: reopening compacted WAL: %w", err)
	}
	if _, err := nf.Seek(off, io.SeekStart); err != nil {
		nf.Close()
		return fmt.Errorf("durable: %w", err)
	}
	s.wal.Close()
	s.wal = nf
	s.recs = keptRecs
	return nil
}

// DumpWAL renders the WAL under dir human-readably: one header line per
// record (version, op counts, byte size) followed by the delta's TSV
// body, indented. Output is deterministic for a deterministic log, so
// golden tests can pin it. A torn tail is reported, not an error — the
// dump tool exists to inspect exactly such logs.
func DumpWAL(w io.Writer, dir string, sc *schema.Schema) error {
	buf, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	off := 0
	n := 0
	for off < len(buf) {
		v, d, consumed, err := DecodeWALRecord(buf[off:], sc)
		if err != nil {
			fmt.Fprintf(w, "!! torn tail at offset %d (%d trailing bytes): %v\n", off, len(buf)-off, err)
			return nil
		}
		n++
		fmt.Fprintf(w, "record %d: version=%d ops=%d bytes=%d %s\n", n, v, d.Len(), consumed, d)
		var body bytes.Buffer
		if err := live.WriteDeltaTSV(&body, d); err != nil {
			return fmt.Errorf("durable: %w", err)
		}
		for _, line := range bytes.Split(bytes.TrimRight(body.Bytes(), "\n"), []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			fmt.Fprintf(w, "  %s\n", line)
		}
		off += consumed
	}
	fmt.Fprintf(w, "%d records, %d bytes\n", n, off)
	return nil
}

package durable

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/live"
	"repro/internal/schema"
	"repro/internal/value"
)

// WAL frame layout, little-endian:
//
//	u32 payloadLen | u32 crc32c(payload) | payload
//
// payload:
//
//	u8 format | uvarint commitVersion | delta
//
// Format 2, the one written, carries the delta in live's binary codec
// (live.AppendDelta): uvarint counts and each tuple as its value.Key
// cells. Format 1, written by older binaries, carried delta TSV
// (live.WriteDeltaTSV); its records still replay. Any frame that fails
// the length or CRC check — a torn tail from a crash mid-append — marks
// the end of the committed log; everything before it is intact by
// construction (appends are fsynced in order). A frame whose CRC holds
// but whose format byte is neither is no torn tail but a record this
// binary cannot read: Open refuses the log with a *FormatError and
// leaves it as it is.

const (
	// walFormatTSV and walFormatBinary are the payload formats a log may
	// hold; AppendDelta writes walFormatBinary.
	walFormatTSV    = 1
	walFormatBinary = 2
	// maxWALPayload bounds a single record; a length field above it is
	// corruption, not a huge delta.
	maxWALPayload = 1 << 28
	frameHeader   = 8 // payloadLen + crc
)

// EncodeWALRecord renders one framed WAL record for d committing
// version.
func EncodeWALRecord(version uint64, d *live.Delta) ([]byte, error) {
	frame := make([]byte, frameHeader, 64)
	frame = append(frame, walFormatBinary)
	frame = binary.AppendUvarint(frame, version)
	frame = live.AppendDelta(frame, d)
	p := frame[frameHeader:]
	if len(p) > maxWALPayload {
		return nil, fmt.Errorf("durable: WAL record of %d bytes exceeds limit", len(p))
	}
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(p)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(p, crcTable))
	return frame, nil
}

// badFrame is a malformed frame — what a torn tail or bit rot leaves —
// as opposed to a read that failed.
type badFrame struct{ error }

func (b badFrame) Unwrap() error { return b.error }

// FormatError is a WAL frame whose checksum holds but whose format byte
// this binary does not read — a record a newer binary committed, not a
// torn tail. Dropping it would drop committed writes, so Open refuses
// the log instead of truncating it.
type FormatError struct {
	Offset int64 // where the frame starts
	Format byte
}

func (e *FormatError) Error() string {
	return fmt.Sprintf("durable: WAL record at offset %d has format %d; this binary reads formats %d and %d",
		e.Offset, e.Format, walFormatTSV, walFormatBinary)
}

// frameReader reads WAL frames in file order from the byte range
// [off, end) of the log, one frame at a time through a small buffer.
type frameReader struct {
	r        io.Reader
	off, end int64 // where the next frame starts; where the range ends
	hdr      [frameHeader]byte
	buf      []byte // the payload buffer, reused frame to frame
}

func newFrameReader(f io.ReaderAt, off, end int64) *frameReader {
	return &frameReader{r: bufio.NewReader(io.NewSectionReader(f, off, end-off)), off: off, end: end}
}

// readFrame reads the next frame. It checks the header, then the length
// against maxWALPayload and against the bytes the range still holds
// before allocating anything, then the payload's CRC32C, format byte and
// commit version; it never panics on arbitrary bytes. It returns the
// commit version, the payload format and the delta body, which is valid
// until the next call. io.EOF means the range ended at a frame
// boundary; a malformed frame is a badFrame, and an intact one of an
// unknown format a *FormatError. off moves past a frame only when it is
// returned.
func (fr *frameReader) readFrame() (version uint64, format byte, body []byte, err error) {
	remain := fr.end - fr.off
	if remain == 0 {
		return 0, 0, nil, io.EOF
	}
	if remain < frameHeader {
		return 0, 0, nil, badFrame{fmt.Errorf("durable: WAL frame header: %w", io.ErrUnexpectedEOF)}
	}
	h := fr.hdr[:]
	if _, err := io.ReadFull(fr.r, h); err != nil {
		return 0, 0, nil, fmt.Errorf("durable: reading WAL: %w", err)
	}
	n := binary.LittleEndian.Uint32(h[0:4])
	if n > maxWALPayload {
		return 0, 0, nil, badFrame{fmt.Errorf("durable: WAL record claims %d bytes, limit %d", n, maxWALPayload)}
	}
	if remain < frameHeader+int64(n) {
		return 0, 0, nil, badFrame{fmt.Errorf("durable: WAL payload: %w", io.ErrUnexpectedEOF)}
	}
	if cap(fr.buf) < int(n) {
		fr.buf = make([]byte, n)
	}
	payload := fr.buf[:n]
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		return 0, 0, nil, fmt.Errorf("durable: reading WAL: %w", err)
	}
	if got, want := crc32.Checksum(payload, crcTable), binary.LittleEndian.Uint32(h[4:8]); got != want {
		return 0, 0, nil, badFrame{fmt.Errorf("durable: WAL record checksum mismatch (%08x != %08x)", got, want)}
	}
	dec := value.NewDecoder(payload)
	format = dec.Byte()
	if dec.Err() == nil && format != walFormatTSV && format != walFormatBinary {
		return 0, 0, nil, &FormatError{Offset: fr.off, Format: format}
	}
	v := dec.Uvarint()
	if err := dec.Err(); err != nil {
		return 0, 0, nil, badFrame{fmt.Errorf("durable: WAL record head: %w", err)}
	}
	fr.off += frameHeader + int64(n)
	return v, format, dec.Rest(), nil
}

// readRecord is readFrame plus the decode of the frame's delta.
func (fr *frameReader) readRecord(sc *schema.Schema) (uint64, *live.Delta, error) {
	v, format, body, err := fr.readFrame()
	if err != nil {
		return 0, nil, err
	}
	var d *live.Delta
	if format == walFormatTSV {
		d, err = live.ReadDeltaTSV(bytes.NewReader(body), sc)
	} else {
		d, err = live.DecodeDelta(string(body), sc)
	}
	if err != nil {
		return 0, nil, badFrame{fmt.Errorf("durable: WAL delta: %w", err)}
	}
	return v, d, nil
}

// scanWAL walks the log frame by frame from offset 0, rebuilding the
// record ledger. The first malformed frame is treated as a torn tail:
// the file is truncated at the last intact frame boundary. An intact
// frame of an unknown format is refused, the file left whole. Only
// frames are checked here — decoding their deltas belongs to replay,
// which has the schema.
func (s *Store) scanWAL() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	fi, err := s.wal.Stat()
	if err != nil {
		return fmt.Errorf("durable: reading WAL: %w", err)
	}
	fr := newFrameReader(s.wal, 0, fi.Size())
	s.recs = nil
	for {
		v, _, _, err := fr.readFrame()
		switch {
		case err == io.EOF:
			return nil
		case err == nil:
			// Double a full ledger, rather than append's gentler growth
			// past 256 entries: Open then allocates about twice the
			// ledger a long log needs, not several times it.
			if len(s.recs) == cap(s.recs) {
				s.recs = slices.Grow(s.recs, len(s.recs))
			}
			s.recs = append(s.recs, recMeta{version: v, end: fr.off})
		case errors.As(err, new(badFrame)):
			return s.truncateLocked(fr.off)
		default:
			return err
		}
	}
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

// records decodes the deltas committing versions from+1 .. to, in
// order. It reads the one byte range the ledger names — from the end of
// the last record at or below from to the end of the last record at or
// below to — so the records a checkpoint covers are never read. A
// missing version, a base checkpoint newer than the log's last record
// (from > to, when Open truncated records the checkpoint covers), or a
// frame that no longer decodes (corruption past the CRC, or a schema
// mismatch), aborts recovery rather than guessing.
func (s *Store) records(sc *schema.Schema, from, to uint64) ([]*live.Delta, error) {
	if from > to {
		return nil, fmt.Errorf("durable: WAL replay reached version %d, expected %d", from, to)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var off, end int64
	for _, m := range s.recs {
		if m.version <= from {
			off = m.end
		}
		if m.version <= to {
			end = m.end
		}
	}
	fr := newFrameReader(s.wal, off, max(off, end))
	out := make([]*live.Delta, 0, min(to-from, uint64(len(s.recs))))
	for want := from + 1; want <= to; want++ {
		v, d, err := fr.readRecord(sc)
		switch {
		case err == io.EOF:
			return nil, fmt.Errorf("durable: WAL replay reached version %d, expected %d", want-1, to)
		case err != nil:
			return nil, err
		case v != want:
			return nil, fmt.Errorf("durable: WAL replay expected version %d, found %d", want, v)
		}
		out = append(out, d)
	}
	return out, nil
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
	return s.truncateLocked(cut)
}

// compactLocked rewrites the WAL keeping only records with
// version > keep, via temp file + fsync + atomic rename. AppendDelta
// only ever appends last+1, so the kept records are a suffix of the
// file: they are copied from a section of the old file, and the ledger
// shifts by the cut. Called with ckptMu held; takes mu itself around the
// swap.
func (s *Store) compactLocked(keep uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	drop, cut, end := 0, int64(0), int64(0)
	for i, r := range s.recs {
		if r.version <= keep {
			drop, cut = i+1, r.end
		}
		end = r.end
	}
	tmp := s.walPath() + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if _, err := io.Copy(f, io.NewSectionReader(s.wal, cut, end-cut)); err != nil {
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
	s.wal.Close()
	s.wal = nf
	s.recs = append(s.recs[:0], s.recs[drop:]...)
	for i := range s.recs {
		s.recs[i].end -= cut
	}
	return nil
}

// DumpWAL renders the WAL under dir human-readably: one header line per
// record (version, op counts, byte size) followed by the delta's TSV
// body as delta TSV, indented, whichever format the record is stored
// in. Output is deterministic for a deterministic log, so golden tests
// can pin it. A torn tail is reported, not an error — the dump tool
// exists to inspect exactly such logs; a record of an unknown format is
// refused with its *FormatError after the records before it.
func DumpWAL(w io.Writer, dir string, sc *schema.Schema) error {
	f, err := os.Open(filepath.Join(dir, walName))
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	fr := newFrameReader(f, 0, fi.Size())
	n := 0
	for {
		start := fr.off
		v, d, err := fr.readRecord(sc)
		if err == io.EOF {
			break
		}
		if errors.As(err, new(badFrame)) {
			fmt.Fprintf(w, "!! torn tail at offset %d (%d trailing bytes): %v\n", start, fr.end-start, err)
			return nil
		}
		if err != nil {
			return err
		}
		n++
		fmt.Fprintf(w, "record %d: version=%d ops=%d bytes=%d %s\n", n, v, d.Len(), fr.off-start, d)
		var body bytes.Buffer
		if err := live.WriteDeltaTSV(&body, d); err != nil {
			return fmt.Errorf("durable: %w", err)
		}
		for line := range bytes.Lines(body.Bytes()) {
			fmt.Fprintf(w, "  %s", line)
		}
	}
	fmt.Fprintf(w, "%d records, %d bytes\n", n, fr.off)
	return nil
}

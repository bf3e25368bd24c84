package durable

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/access"
	"repro/internal/live"
	"repro/internal/workload"
)

// The durable decoders sit on the recovery path: whatever a crash, a
// partial write, or bit rot left on disk goes through them before
// anything else runs. Like the TSV codec fuzzers (which caught a real
// escaping bug in PR 4), these harnesses assert two properties on
// arbitrary bytes: the decoders never panic, and a corrupted record is
// never silently accepted — flipping any byte of a valid frame must
// surface as an error, because the CRC covers the whole payload.

func FuzzWALRecord(f *testing.F) {
	sc := workload.AccidentSchema()
	acc, err := workload.GenerateAccidents(workload.AccidentConfig{
		Days: 1, AccidentsPerDay: 4, MaxVehicles: 2, Seed: 3,
	})
	if err != nil {
		f.Fatal(err)
	}
	st, err := workload.NewAccidentStream(acc, workload.AccidentStreamConfig{
		InsertAccidents: 2, DeleteAccidents: 1, Seed: 9,
	})
	if err != nil {
		f.Fatal(err)
	}
	d := st.Next()
	frame, err := EncodeWALRecord(7, d)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame)
	f.Add(encodeTSVRecord(7, d))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, b []byte) {
		v, d, n, err := decodeWALRecord(b, sc)
		if err != nil {
			return
		}
		// An accepted record must re-encode, in its own format, to the
		// exact accepted frame: acceptance of a frame that is not a
		// fixed point would mean two on-disk spellings of one record,
		// and a corruption the CRC let through.
		re, err := EncodeWALRecord(v, d)
		if b[frameHeader] == walFormatTSV {
			re = encodeTSVRecord(v, d)
		}
		if err != nil {
			t.Fatalf("accepted record failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, b[:n]) {
			t.Fatalf("decode/encode not a fixed point:\n in: %x\nout: %x", b[:n], re)
		}
		// Any single corrupted byte inside the frame must be rejected.
		for _, i := range []int{0, 4, frameHeader, n - 1} {
			bad := append([]byte(nil), b[:n]...)
			bad[i] ^= 0x20
			if _, _, _, err := decodeWALRecord(bad, sc); err == nil {
				// Flipping a length byte can still frame a valid shorter
				// record only if the CRC matches, which the checksum makes
				// astronomically unlikely; treat acceptance as a bug.
				t.Fatalf("corrupted byte %d accepted", i)
			}
		}
	})
}

func FuzzCheckpoint(f *testing.F) {
	acc, err := workload.GenerateAccidents(workload.AccidentConfig{
		Days: 1, AccidentsPerDay: 4, MaxVehicles: 2, Seed: 3,
	})
	if err != nil {
		f.Fatal(err)
	}
	sc, a := acc.Schema, acc.Access
	ix, viols, err := access.BuildIndexed(a, acc.Instance)
	if err != nil || len(viols) > 0 {
		f.Fatalf("BuildIndexed: %v %v", err, viols)
	}
	img, err := EncodeCheckpoint(sc, &State{Instance: acc.Instance, Indexed: ix, Version: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(img)
	f.Add([]byte("BECKPT01"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		st, err := DecodeCheckpoint(b, sc, a)
		if err != nil {
			return
		}
		// An accepted checkpoint must be internally consistent enough to
		// re-encode, and re-encoding must reproduce the input bit-for-bit
		// (the format has one canonical spelling per state).
		re, err := EncodeCheckpoint(sc, st)
		if err != nil {
			t.Fatalf("accepted checkpoint failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, b) {
			t.Fatalf("decode/encode not a fixed point (%d vs %d bytes)", len(re), len(b))
		}
	})
}

// FuzzRecoverDir drives the full Open→Recover path on a directory whose
// WAL is arbitrary bytes: recovery must either succeed on some prefix
// or fail cleanly, never panic, and never invent state on a fresh WAL.
func FuzzRecoverDir(f *testing.F) {
	acc, err := workload.GenerateAccidents(workload.AccidentConfig{
		Days: 1, AccidentsPerDay: 4, MaxVehicles: 2, Seed: 3,
	})
	if err != nil {
		f.Fatal(err)
	}
	st, err := workload.NewAccidentStream(acc, workload.AccidentStreamConfig{
		InsertAccidents: 2, DeleteAccidents: 1, Seed: 9,
	})
	if err != nil {
		f.Fatal(err)
	}
	d1, d2 := st.Next(), st.Next()
	frame2, err := EncodeWALRecord(2, d2)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(encodeTSVRecord(1, d1), frame2...))
	f.Add(frame2)
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 1})

	f.Fuzz(func(t *testing.T, wal []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walName), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, nil)
		if errors.As(err, new(*FormatError)) {
			return // an intact record of an unknown format: refused whole
		}
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		_, _ = s.Recover(context.Background(), acc.Schema, acc.Access, NoLimit)
	})
}

// encodeTSVRecord frames d as a format-1 record, its delta in delta TSV,
// as binaries before the binary delta codec wrote every record.
func encodeTSVRecord(version uint64, d *live.Delta) []byte {
	p := binary.AppendUvarint([]byte{walFormatTSV}, version)
	var tsv bytes.Buffer
	if err := live.WriteDeltaTSV(&tsv, d); err != nil {
		panic(err)
	}
	p = append(p, tsv.Bytes()...)
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(p)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(p, crcTable))
	return append(frame, p...)
}

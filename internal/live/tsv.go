package live

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/data"
	"repro/internal/load"
	"repro/internal/schema"
	"repro/internal/value"
)

// Delta TSV format: one operation per line,
//
//	+<TAB><Relation><TAB><v1><TAB>...<TAB><vk>    insert
//	-<TAB><Relation><TAB><v1><TAB>...<TAB><vk>    delete
//
// with cells encoded exactly like instance TSV files (load.EncodeValue):
// digit-only cells are integers, everything else strings, "s:"-prefixed
// cells force strings with \t, \n, \\ escapes. Blank lines and lines
// starting with # are skipped.

// ReadDeltaTSV parses a delta document against s.
func ReadDeltaTSV(r io.Reader, s *schema.Schema) (*Delta, error) {
	d := NewDelta(s)
	sc := bufio.NewScanner(r)
	// Start small and let the scanner grow toward the 16MB line cap:
	// this runs once per request on /v1/apply and once per format-1 WAL
	// record on recovery, so a buffer allocated up front is paid per
	// body.
	sc.Buffer(nil, 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cells := strings.Split(line, "\t")
		if len(cells) < 2 {
			return nil, fmt.Errorf("live: delta line %d: want <op>\\t<relation>\\t<values...>", lineNo)
		}
		op, rel := cells[0], cells[1]
		vals := make([]value.Value, len(cells)-2)
		for i, c := range cells[2:] {
			v, err := load.DecodeValue(c)
			if err != nil {
				return nil, fmt.Errorf("live: delta line %d: %w", lineNo, err)
			}
			vals[i] = v
		}
		if op != "+" && op != "-" {
			return nil, fmt.Errorf("live: delta line %d: unknown op %q (want + or -)", lineNo, op)
		}
		if err := d.add(rel, vals, op == "+"); err != nil {
			return nil, fmt.Errorf("live: delta line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	return d, nil
}

// LoadDelta reads a delta TSV file from disk.
func LoadDelta(path string, s *schema.Schema) (*Delta, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	defer f.Close()
	return ReadDeltaTSV(f, s)
}

// WriteDeltaTSV renders d in the delta TSV format, relations in
// first-touch order, deletes before inserts per relation (the order Apply
// uses).
func WriteDeltaTSV(w io.Writer, d *Delta) error {
	bw := bufio.NewWriter(w) // a failed write sticks and surfaces at Flush
	for _, name := range d.order {
		for op, ts := range [2][]data.Tuple{d.rels[name].deletes, d.rels[name].inserts} {
			for _, t := range ts {
				bw.WriteString("-+"[op:op+1] + "\t" + name)
				for _, v := range t {
					bw.WriteString("\t" + load.EncodeValue(v))
				}
				bw.WriteByte('\n')
			}
		}
	}
	return bw.Flush()
}

package live

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"

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
	// this runs once per WAL record on recovery and once per request on
	// /v1/apply, so a buffer allocated up front is paid per record.
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
		var err error
		switch op {
		case "+":
			err = d.Insert(rel, vals...)
		case "-":
			err = d.Delete(rel, vals...)
		default:
			err = fmt.Errorf("live: unknown op %q (want + or -)", op)
		}
		if err != nil {
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
	bw := bufio.NewWriter(w)
	for _, name := range d.order {
		rd := d.rels[name]
		for _, t := range rd.deletes {
			if err := writeOp(bw, "-", name, t); err != nil {
				return err
			}
		}
		for _, t := range rd.inserts {
			if err := writeOp(bw, "+", name, t); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

func writeOp(w *bufio.Writer, op, rel string, t []value.Value) error {
	cells := make([]string, 0, len(t)+2)
	cells = append(cells, op, rel)
	for _, v := range t {
		cells = append(cells, load.EncodeValue(v))
	}
	_, err := w.WriteString(strings.Join(cells, "\t") + "\n")
	return err
}

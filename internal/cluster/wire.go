// Internal wire protocol between the coordinator and shard nodes.
// Everything rides /v1/internal/* on the node's existing listener:
// small JSON request/response bodies, with bulk payloads (deltas,
// instance dumps) in the TSV formats the repo already pins and fuzzes
// (load.EncodeValue cells, live delta TSV). Index keys travel in
// value.Key's text form — base64 of the raw injective encoding — so a
// key round-trips bit-exactly and the receiving side hashes it to the
// same shard the sender would.
package cluster

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/data"
	"repro/internal/index"
	"repro/internal/load"
	"repro/internal/schema"
	"repro/internal/shard"
	"repro/internal/value"
)

// tsvType is the content type of the bulk bodies (deltas, instances).
const tsvType = "text/tab-separated-values"

// The answers of status, stage and groups are shard.Status, shard.Staged
// and []shard.Group themselves, in the JSON shape their tags give.

// fetchRequest carries one fetch step's keys for this partition — every
// key of the step for a scatter, the keys that hash here for a route —
// and asks for constraint CI's buckets at the pinned version V, one per
// key, in key order.
type fetchRequest struct {
	V    uint64      `json:"v"`
	CI   int         `json:"ci"`
	Keys []value.Key `json:"keys"`
}

// wireBucket is one canonical-order bucket: Cells holds the
// Y-projections back to back (stride S), each cell in the TSV value
// encoding.
type wireBucket struct {
	S int      `json:"s"`
	C []string `json:"c,omitempty"`
}

type fetchResponse struct {
	Buckets []wireBucket `json:"buckets"`
}

// maxGroupResponse answers POST /v1/internal/maxgroup (a groupsRequest
// without keys): the post-delta MaxGroup of constraint CI — the staged
// index when transaction Txn touched it, the committed version-V index
// otherwise. Used for the shrink-|D| recheck of aligned constraints.
type maxGroupResponse struct {
	Max int `json:"max"`
}

// groupsRequest asks for the projection-key sets of constraint CI's
// post-delta buckets: for the named keys, or for every key when All is
// set. The coordinator unions the per-node sets to measure true group
// sizes of constraints whose groups straddle shards.
type groupsRequest struct {
	Txn  string      `json:"txn"`
	V    uint64      `json:"v"`
	CI   int         `json:"ci"`
	Keys []value.Key `json:"keys,omitempty"`
	All  bool        `json:"all,omitempty"`
}

type groupsResponse struct {
	Groups []shard.Group `json:"groups"`
}

// commitRequest publishes staged transaction Txn on top of committed
// version V, answering a versionResponse. Idempotent: a node that
// already committed Txn answers with the same result again.
type commitRequest struct {
	Txn string `json:"txn"`
	V   uint64 `json:"v"`
}

type abortRequest struct {
	Txn string `json:"txn"`
}

type rollbackRequest struct {
	V uint64 `json:"v"`
}

type versionResponse struct {
	Version uint64 `json:"version"`
	Size    int    `json:"size"`
}

// wireError is the {"error":{code,message}} envelope internal endpoints
// answer failures with — the same shape as the public API's, so a
// coordinator can propagate a peer's code outward unchanged.
type wireError struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// encodeBucket renders a fetch result. Cells are encoded with the TSV
// value codec — compact, and already fuzz-hardened.
func encodeBucket(b index.Bucket) wireBucket {
	if b.Len() == 0 {
		return wireBucket{}
	}
	stride := len(b.AppendRow(nil, 0))
	cells := make([]string, 0, b.Len()*stride)
	for i := 0; i < b.Len(); i++ {
		for j := 0; j < stride; j++ {
			cells = append(cells, load.EncodeValue(b.At(i, j)))
		}
	}
	return wireBucket{S: stride, C: cells}
}

// decodeBucket rebuilds the immutable bucket view. The sender emitted
// projections in canonical order, which NewBucket's contract requires.
func decodeBucket(wb wireBucket) (index.Bucket, error) {
	if len(wb.C) == 0 {
		return index.Bucket{}, nil
	}
	if wb.S <= 0 || len(wb.C)%wb.S != 0 {
		return index.Bucket{}, fmt.Errorf("cluster: bucket of %d cells with stride %d", len(wb.C), wb.S)
	}
	cells := make([]value.Value, len(wb.C))
	for i, c := range wb.C {
		v, err := load.DecodeValue(c)
		if err != nil {
			return index.Bucket{}, fmt.Errorf("cluster: bucket cell %d: %w", i, err)
		}
		cells[i] = v
	}
	return index.NewBucket(cells, wb.S), nil
}

// writeInstanceTSV streams an instance as one TSV document — one line
// per tuple, "<Relation>\t<cell>..." — the bulk format of the dump and
// load internal endpoints.
func writeInstanceTSV(w io.Writer, s *schema.Schema, inst *data.Instance) error {
	bw := bufio.NewWriter(w)
	for _, rs := range s.Relations() {
		rel := inst.Relation(rs.Name)
		if rel == nil {
			continue
		}
		var buf data.Tuple
		for ri := 0; ri < rel.Len(); ri++ {
			buf = rel.AppendRow(buf, ri)
			cells := make([]string, 0, len(buf)+1)
			cells = append(cells, rs.Name)
			for _, v := range buf {
				cells = append(cells, load.EncodeValue(v))
			}
			if _, err := bw.WriteString(strings.Join(cells, "\t") + "\n"); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// readInstanceTSV parses a dump back into an instance (appending into
// dst, which callers hand in empty).
func readInstanceTSV(r io.Reader, s *schema.Schema, dst *data.Instance) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		cells := strings.Split(line, "\t")
		rel := dst.Relation(cells[0])
		if rel == nil {
			return fmt.Errorf("cluster: dump line %d: unknown relation %q", lineNo, cells[0])
		}
		row := make([]value.Value, len(cells)-1)
		for i, c := range cells[1:] {
			v, err := load.DecodeValue(c)
			if err != nil {
				return fmt.Errorf("cluster: dump line %d: %w", lineNo, err)
			}
			row[i] = v
		}
		if _, err := rel.Insert(row); err != nil {
			return fmt.Errorf("cluster: dump line %d: %w", lineNo, err)
		}
	}
	return sc.Err()
}

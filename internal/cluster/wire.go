// Internal wire protocol between the coordinator and shard nodes. A
// coordinator dials a node's one listener, sends
//
//	GET /v1/internal/conn HTTP/1.1
//	Connection: Upgrade
//	Upgrade: beserve-partition/2
//
// and the node answers 101 Switching Protocols and hijacks the
// connection. From then on every shard.Partition call is one request
// frame and one answer frame, one call in flight per connection:
//
//	request: uvarint method, uvarint n, n body bytes
//	answer:  uvarint status, uvarint n, n body bytes
//
// The status is the HTTP status the call would have had: 200 with the
// call's answer, or a refusal's status with the {"error":{code,message}}
// envelope. A body of at most maxInternalBody bytes is read only as it
// arrives, so a length that lies costs no memory. Any other request to
// /v1/internal/*, or an upgrade naming another protocol, answers 426
// upgrade_required — beserve-partition/1, the JSON-bodied wire before
// this one, included. Below the envelope every body is one binary
// encoding: minimal uvarints, uvarint-length-prefixed byte strings and
// value.Key cells, all read by value.Decoder:
//
//   - control bodies: versions, transaction ids, sizes, flags and the
//     X-keys and projection keys of the write path's group checks (see
//     request and the table above appendRequest);
//   - the binary fetch exchange: a step's X-keys and their buckets, each
//     tuple as its raw value.Key cells (the bytes Bucket.AppendKeyOf
//     writes) with uvarint counts;
//   - checkpoint images (durable.EncodeCheckpoint) for whole
//     partitions: the load body and the dump answer;
//   - live's binary delta (live.AppendDelta), the WAL record's own
//     payload, as the stage body behind its base version and
//     transaction id.
//
// Only the refusal envelope is JSON, the public API's shape.
//
// Nothing authenticates or encrypts a connection: the wire is for a
// trusted network between one coordinator and its nodes.
package cluster

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/index"
	"repro/internal/shard"
	"repro/internal/value"
)

// wireProtocol is the Upgrade token of the framed partition wire, and
// connPath the one internal path a node answers: the upgrade to it.
const (
	wireProtocol = "beserve-partition/2"
	connPath     = "/v1/internal/conn"
)

// maxInternalBody bounds a frame's body (deltas, partition images).
// Generous — this wire is coordinator-to-node, not public — but still
// bounded so a confused peer cannot balloon memory.
const maxInternalBody = 1 << 30

// method names a shard.Partition call on the wire: a request frame's
// head.
type method uint8

const (
	mStatus method = 1 + iota
	mLoad
	mStage
	mMaxGroup
	mGroups
	mCommit
	mAbort
	mRollback
	mFetch
	mDump
	mCheckpoint
	numMethods
)

var methodNames = [numMethods]string{
	mStatus: "status", mLoad: "load", mStage: "stage", mMaxGroup: "maxgroup",
	mGroups: "groups", mCommit: "commit", mAbort: "abort", mRollback: "rollback",
	mFetch: "fetch", mDump: "dump", mCheckpoint: "checkpoint",
}

func (m method) String() string {
	if m < numMethods && methodNames[m] != "" {
		return methodNames[m]
	}
	return fmt.Sprintf("method %d", uint8(m))
}

// writeFrame writes one frame — head, body length, body — and flushes
// it.
func writeFrame(w *bufio.Writer, head uint64, body []byte) error {
	var hdr [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], head)
	n += binary.PutUvarint(hdr[n:], uint64(len(body)))
	w.Write(hdr[:n]) // a failed write sticks in w and surfaces at Flush
	w.Write(body)
	return w.Flush()
}

// readFrame reads one frame. io.EOF means the peer closed the
// connection between frames; a frame cut short anywhere is
// io.ErrUnexpectedEOF. The body is the caller's own: nothing else holds
// it.
func readFrame(r *bufio.Reader) (head uint64, body []byte, err error) {
	if head, err = readUvarint(r); err != nil {
		return 0, nil, err
	}
	n, err := readUvarint(r)
	if err != nil {
		return 0, nil, noEOF(err)
	}
	if n > maxInternalBody {
		return 0, nil, fmt.Errorf("frame: %d-byte body exceeds the %d-byte limit", n, maxInternalBody)
	}
	const eager = 64 << 10
	if n <= eager {
		body = make([]byte, n)
		_, err = io.ReadFull(r, body)
		return head, body, noEOF(err)
	}
	// A long body grows with the bytes that arrive, not with the length
	// the frame claims.
	if body, err = io.ReadAll(io.LimitReader(r, int64(n))); err == nil && uint64(len(body)) < n {
		err = io.ErrUnexpectedEOF
	}
	return head, body, err
}

// readRequest reads a node's next request frame.
func readRequest(r *bufio.Reader) (method, []byte, error) {
	head, body, err := readFrame(r)
	if err == nil && head > math.MaxUint8 {
		err = fmt.Errorf("frame: method %d is not a method", head)
	}
	return method(head), body, err
}

// readAnswer reads the answer frame to the request a client sent.
func readAnswer(r *bufio.Reader) (status int, body []byte, err error) {
	head, body, err := readFrame(r)
	if err == nil && (head < 100 || head > 599) {
		err = fmt.Errorf("frame: status %d is not a status", head)
	}
	return int(head), body, noEOF(err)
}

// readUvarint reads a minimal uvarint byte by byte.
func readUvarint(r *bufio.Reader) (uint64, error) {
	var buf [binary.MaxVarintLen64]byte
	for i := range buf {
		b, err := r.ReadByte()
		if err != nil {
			if i > 0 {
				err = noEOF(err)
			}
			return 0, err
		}
		if buf[i] = b; b < 0x80 {
			// Only test the decoder's error: returning it would let buf
			// escape, one allocation per frame head.
			dec := value.NewDecoder(buf[:i+1])
			if x := dec.Uvarint(); dec.Err() == nil {
				return x, nil
			}
			return 0, errors.New("frame: non-minimal uvarint")
		}
	}
	return 0, errors.New("frame: uvarint overflows 64 bits")
}

// noEOF reports an EOF inside a frame as the truncation it is.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// wireError is the {"error":{code,message}} envelope a refused call
// answers with — the same shape as the public API's, so a coordinator
// can propagate a peer's code outward unchanged.
type wireError struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// Control bodies are minimal uvarints and byte strings (a uvarint length,
// then the bytes: a transaction id, a value.Key), in this order, with
// flags as 0 or 1 and nothing after them, so a body either decodes and
// re-encodes byte for byte or is refused:
//
//	call        request                         answer
//	status      —                               shard shards version size catalog
//	stage       txn v delta                     size old_size inserted deleted
//	                                            n, n × (touched max_insert keys)
//	maxgroup    txn v ci                        max
//	groups      txn v ci all keys               n, n × (key keys)
//	commit      txn v                           version size
//	abort       txn                             —
//	rollback    v                               version size
//	load        checkpoint image                version size
//	dump        v                               checkpoint image
//	checkpoint  v                               version
//
// where keys is a uvarint count and that many byte strings, and a
// stage's delta, on top of version v, is the rest of its body in live's
// binary delta codec.

// A coder walks one control body field by field: encoding, it appends
// each field it is handed; decoding, it reads each into the field. So a
// body is spelled once for both directions, and they cannot disagree.
type coder struct {
	out []byte                 // encoding: the body so far
	dec *value.Decoder[string] // decoding; nil when encoding
}

// encode appends the body that code spells to dst.
func encode(dst []byte, code func(*coder)) []byte {
	c := coder{out: dst}
	code(&c)
	return c.out
}

// decode reads body with code, refusing a malformed body or one with
// bytes left over. Decoded strings and keys share one copy of body.
func decode(body []byte, code func(*coder)) error {
	dec := value.NewDecoder(string(body))
	code(&coder{dec: &dec})
	return dec.Done()
}

func (c *coder) uvarint(x *uint64) {
	if c.dec != nil {
		*x = c.dec.Uvarint()
	} else {
		c.out = binary.AppendUvarint(c.out, *x)
	}
}

func (c *coder) int(x *int) {
	u := uint64(*x)
	c.uvarint(&u)
	*x = int(u)
}

// count codes a slice length, min being the fewest bytes an item takes:
// a decoded count is one the bytes left can hold.
func (c *coder) count(n *int, min int) {
	if c.dec != nil {
		*n = c.dec.Count(min)
	} else {
		c.out = binary.AppendUvarint(c.out, uint64(*n))
	}
}

func (c *coder) bool(b *bool) {
	var u uint64
	if *b {
		u = 1
	}
	if c.uvarint(&u); u > 1 {
		c.dec.Fail("flag %d is not 0 or 1", u)
	}
	*b = u == 1
}

// str codes a byte string: a transaction id or a value.Key.
func str[S ~string](c *coder, s *S) {
	if c.dec != nil {
		*s = S(c.dec.Bytes())
	} else {
		c.out = value.AppendBytes(c.out, *s)
	}
}

// keys codes a key list; an empty one decodes as nil.
func (c *coder) keys(ks *[]value.Key) {
	n := len(*ks)
	if c.count(&n, 1); c.dec != nil && n > 0 {
		*ks = make([]value.Key, n)
	}
	for i := range *ks {
		str(c, &(*ks)[i])
	}
}

// request is every control call's request: reqFields names the fields
// its method carries, in the order they are declared.
type request struct {
	txn   string
	v     uint64
	ci    uint64
	all   bool
	keys  []value.Key
	delta string
}

const (
	fTxn = 1 << iota
	fV
	fCI
	fKeys  // all, then keys
	fDelta // the rest of the body
)

var reqFields = [numMethods]uint8{
	mStage: fTxn | fV | fDelta, mMaxGroup: fTxn | fV | fCI, mGroups: fTxn | fV | fCI | fKeys,
	mCommit: fTxn | fV, mAbort: fTxn, mRollback: fV, mDump: fV, mCheckpoint: fV,
}

// body is method m's request r.
func (r request) body(m method) []byte {
	return encode(nil, func(c *coder) { c.request(m, &r) })
}

// request codes method m's request r.
func (c *coder) request(m method, r *request) {
	f := reqFields[m]
	if f&fTxn != 0 {
		str(c, &r.txn)
	}
	if f&fV != 0 {
		c.uvarint(&r.v)
	}
	if f&fCI != 0 {
		c.uvarint(&r.ci)
	}
	if f&fKeys != 0 {
		c.bool(&r.all)
		c.keys(&r.keys)
	}
	if f&fDelta == 0 {
		return
	}
	if c.dec != nil {
		r.delta = c.dec.Rest()
	} else {
		c.out = append(c.out, r.delta...)
	}
}

func (c *coder) versionSize(v *uint64, size *int) {
	c.uvarint(v)
	c.int(size)
}

func (c *coder) status(st *shard.Status) {
	c.int(&st.Shard)
	c.int(&st.Shards)
	c.uvarint(&st.Version)
	c.int(&st.Size)
	catalog := uint64(st.Catalog)
	if c.uvarint(&catalog); catalog > math.MaxUint32 {
		c.dec.Fail("catalog %d overflows 32 bits", catalog)
	}
	st.Catalog = uint32(catalog)
}

func (c *coder) staged(st *shard.Staged) {
	c.int(&st.Size)
	c.int(&st.OldSize)
	c.int(&st.Inserted)
	c.int(&st.Deleted)
	n := len(st.Constraints)
	if c.count(&n, 3); c.dec != nil {
		st.Constraints = make([]shard.StagedConstraint, n)
	}
	for i := range st.Constraints {
		sc := &st.Constraints[i]
		c.bool(&sc.Touched)
		c.int(&sc.MaxInsert)
		c.keys(&sc.InsertKeys)
	}
}

func (c *coder) groups(gs *[]shard.Group) {
	n := len(*gs)
	if c.count(&n, 2); c.dec != nil {
		*gs = make([]shard.Group, n)
	}
	for i := range *gs {
		str(c, &(*gs)[i].Key)
		c.keys(&(*gs)[i].Projs)
	}
}

// A fetch request carries one fetch step's keys
// for this partition — every key of the step for a scatter, the keys
// that hash here for a route — and asks for constraint CI's buckets at
// the pinned version V, one per key, in key order:
//
//	uvarint V, uvarint CI, uvarint n, n × (uvarint len, len key bytes)
//
// Its answer is the n buckets in request order, each a uvarint
// projection count m and then m projections of |Y| cells each in the
// value.Key cell encoding, in canonical (strictly increasing) order:
//
//	n × (uvarint m, m × |Y| cells)
//
// Every uvarint is minimal, so a body either decodes and re-encodes byte
// for byte or is refused.

// appendFetchRequest appends the fetch request for keys of constraint
// ci at version v to dst.
func appendFetchRequest(dst []byte, v, ci uint64, keys [][]byte) []byte {
	dst = binary.AppendUvarint(dst, v)
	dst = binary.AppendUvarint(dst, ci)
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = value.AppendBytes(dst, k)
	}
	return dst
}

// parseFetchRequest is appendFetchRequest's inverse; the keys alias
// body. The key count is checked against the bytes left before the key
// slice is allocated, so a hostile count cannot balloon memory.
func parseFetchRequest(body []byte) (v, ci uint64, keys [][]byte, err error) {
	dec := value.NewDecoder(body)
	v, ci = dec.Uvarint(), dec.Uvarint()
	keys = make([][]byte, dec.Count(1)) // every key takes at least its length byte
	for i := range keys {
		keys[i] = slices.Clip(dec.Bytes())
	}
	if err := dec.Done(); err != nil {
		return 0, 0, nil, fmt.Errorf("fetch request: %w", err)
	}
	return v, ci, keys, nil
}

// appendBuckets appends the fetch answer for buckets to dst.
func appendBuckets(dst []byte, buckets []index.Bucket) []byte {
	for _, b := range buckets {
		dst = binary.AppendUvarint(dst, uint64(b.Len()))
		for i := 0; i < b.Len(); i++ {
			dst = b.AppendKeyOf(dst, i)
		}
	}
	return dst
}

// decodeBuckets rebuilds a peer's answer to n keys of a constraint whose
// Y has arity attributes into out, checking what NewBucket and
// MergeBuckets take on trust: exactly n buckets and no trailing bytes,
// every projection exactly arity well-formed cells, projections strictly
// increasing on their raw bytes. A first pass checks the shape and
// counts the cells; a second decodes them into one arena of exactly
// that size. Decoded strings share one copy of body.
func decodeBuckets(body []byte, n, arity int, out []index.Bucket) error {
	key := string(body)
	dec := value.NewDecoder(key)
	cells := 0
	for i := 0; i < n; i++ {
		if dec.Len() == 0 {
			return fmt.Errorf("fetch answered %d buckets for %d keys", i, n)
		}
		m := dec.Count(arity) // every cell takes at least its kind byte
		prev := ""
		for j := 0; j < m; j++ {
			start := dec.Offset()
			for c := 0; c < arity; c++ {
				dec.Cell()
			}
			if proj := key[start:dec.Offset()]; j > 0 && proj <= prev {
				dec.Fail("projections out of canonical order")
			} else {
				prev = proj
			}
		}
		if err := dec.Err(); err != nil {
			return fmt.Errorf("bucket %d: %w", i, err)
		}
		cells += m * arity
	}
	if dec.Len() != 0 {
		return fmt.Errorf("fetch answered %d bytes past its %d buckets", dec.Len(), n)
	}
	arena := make([]value.Value, cells)
	dec = value.NewDecoder(key)
	c := 0
	for i := 0; i < n; i++ {
		start := c
		for end := c + dec.Count(arity)*arity; c < end; c++ {
			arena[c] = dec.Cell()
		}
		out[i] = index.NewBucket(arena[start:c:c], arity)
	}
	return nil
}

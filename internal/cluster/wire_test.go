package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"repro/internal/access"
	"repro/internal/durable"
	"repro/internal/index"
	"repro/internal/live"
	"repro/internal/plan"
	"repro/internal/shard"
	"repro/internal/value"
	"repro/internal/workload"
)

func keyOf(vs ...int64) value.Key {
	vals := make([]value.Value, len(vs))
	for i, v := range vs {
		vals[i] = iv(v)
	}
	return value.KeyOf(vals...)
}

// answerBody encodes a fetch answer: per bucket its projection count,
// then each projection's key bytes — a projection's cells are its key.
func answerBody(buckets ...[]value.Key) []byte {
	var body []byte
	for _, projs := range buckets {
		body = binary.AppendUvarint(body, uint64(len(projs)))
		for _, pk := range projs {
			body = append(body, pk...)
		}
	}
	return body
}

// TestFetchRefusesMalformedBuckets stands a node up that answers every
// fetch with one fixed body and demands the client refuse each
// malformed shape as shard_unavailable — never a panic, never a bucket
// that breaks the canonical order NewBucket and MergeBuckets rely on —
// while a well-formed answer decodes to exactly the buckets it carries.
// randomBed's constraint 0 is R(a → b): one cell per projection.
func TestFetchRefusesMalformedBuckets(t *testing.T) {
	tb := randomBed(t)
	str := value.KeyOf(sv("abc"))
	valid := answerBody([]value.Key{keyOf(1), keyOf(2)}, []value.Key{str})
	for _, tc := range []struct {
		name string
		body []byte
		ok   bool
	}{
		{"well-formed", valid, true},
		{"well-formed, empty buckets", answerBody(nil, nil), true},
		{"empty body", nil, false},
		{"fewer buckets than keys", answerBody([]value.Key{keyOf(1), keyOf(2)}), false},
		{"more buckets than keys", answerBody([]value.Key{keyOf(1)}, nil, []value.Key{keyOf(3)}), false},
		{"body cut mid-cell", valid[:len(valid)-1], false},
		{"trailing bytes", append(slices.Clip(valid), 0), false},
		{"projection count past the body", append([]byte{0x7f}, answerBody([]value.Key{keyOf(1)}, nil)[1:]...), false},
		{"non-minimal projection count", []byte{0x80, 0x00, 0x00}, false},
		{"empty projection", []byte{0x00, 0x01}, false},
		{"projection too wide", answerBody([]value.Key{keyOf(1, 2)}, nil), false},
		{"projections descending", answerBody([]value.Key{keyOf(2), keyOf(1)}, nil), false},
		{"projection repeated", answerBody(nil, []value.Key{keyOf(1), keyOf(1)}), false},
		{"unknown cell kind", answerBody([]value.Key{"\xff"}, nil), false},
		{"undecodable projection", answerBody([]value.Key{"\x01\x80\x00"}, nil), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", binaryType)
				w.Write(tc.body)
			}))
			t.Cleanup(ts.Close)
			opts := testOptions(t)
			opts.Retries = -1
			view, _ := newPeerClient(0, ts.URL, tb.schema, tb.access, opts).Pin(0)
			out := make([]index.Bucket, 2)
			err := view.Fetcher(0).(plan.BatchFetcher).FetchBatch(context.Background(), [][]byte{[]byte(keyOf(1)), []byte(keyOf(2))}, out)
			if tc.ok {
				if err != nil {
					t.Fatalf("well-formed answer refused: %v", err)
				}
				if got := appendBuckets(nil, out); !bytes.Equal(got, tc.body) {
					t.Fatalf("answer %x decoded to buckets that re-encode to %x", tc.body, got)
				}
				return
			}
			var ue *UnavailableError
			if !errors.As(err, &ue) || codedError(err) != "shard_unavailable" {
				t.Fatalf("malformed answer gave %v, want a shard_unavailable refusal", err)
			}
		})
	}
}

// FuzzFetchResponse holds the fetch decoder to its contract on arbitrary
// bodies: it never panics, and a body it accepts re-encodes to exactly
// the bytes it carried.
func FuzzFetchResponse(f *testing.F) {
	f.Add(answerBody([]value.Key{keyOf(1), keyOf(2, 3)}, nil), uint8(2), uint8(1))
	f.Add(answerBody([]value.Key{keyOf(1, 2), keyOf(2, 3)}, nil), uint8(2), uint8(2))
	f.Add(answerBody([]value.Key{value.KeyOf(sv("a"), iv(-1)), value.KeyOf(value.Value{}, sv(""))}), uint8(1), uint8(2))
	f.Add([]byte{}, uint8(0), uint8(2))
	f.Add([]byte{0x01, 0xff}, uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, body []byte, n, arity uint8) {
		if arity == 0 {
			return
		}
		out := make([]index.Bucket, n)
		if decodeBuckets(body, int(n), int(arity), out) != nil {
			return
		}
		if got := appendBuckets(nil, out); !bytes.Equal(got, body) {
			t.Fatalf("accepted %x, re-encodes to %x", body, got)
		}
	})
}

// TestFetchRequestRefusals posts a node fetch bodies it must refuse and
// demands a structured 400 bad_request for each — a truncated body,
// trailing bytes, counts and lengths past the end, the JSON body the
// wire no longer speaks — while the well-formed request is answered.
func TestFetchRequestRefusals(t *testing.T) {
	tb := randomBed(t)
	coord, _, urls := startCluster(t, tb, 1, testOptions(t))
	if err := coord.Load(tb.build()); err != nil {
		t.Fatal(err)
	}
	valid := appendFetchRequest(nil, 0, 0, [][]byte{[]byte(keyOf(1)), []byte(keyOf(2))})
	head := func(n uint64) []byte { return binary.AppendUvarint([]byte{0, 0}, n) }
	for _, tc := range []struct {
		name   string
		method string
		ctype  string
		body   []byte
		status int
	}{
		{"well-formed", "POST", binaryType, valid, http.StatusOK},
		{"no keys", "POST", binaryType, head(0), http.StatusOK},
		{"empty body", "POST", binaryType, nil, http.StatusBadRequest},
		{"truncated body", "POST", binaryType, valid[:len(valid)-1], http.StatusBadRequest},
		{"trailing bytes", "POST", binaryType, append(slices.Clip(valid), 0), http.StatusBadRequest},
		{"key count past the body", "POST", binaryType, append(head(1<<40), 1, 2), http.StatusBadRequest},
		{"key length past the body", "POST", binaryType, append(head(1), 50, 1, 2), http.StatusBadRequest},
		{"non-minimal varint", "POST", binaryType, []byte{0x80, 0x00, 0, 0}, http.StatusBadRequest},
		{"unknown constraint", "POST", binaryType, appendFetchRequest(nil, 0, 99, nil), http.StatusBadRequest},
		{"JSON body", "POST", "application/json", []byte(`{"v":0,"ci":0,"keys":["AQI="]}`), http.StatusBadRequest},
		{"no content type", "POST", "", valid, http.StatusBadRequest},
		{"GET", "GET", "", nil, http.StatusMethodNotAllowed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, urls[0]+"/v1/internal/fetch", bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if tc.ctype != "" {
				req.Header.Set("Content-Type", tc.ctype)
			}
			resp, err := testOptions(t).Client.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			raw, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d (%s), want %d", resp.StatusCode, raw, tc.status)
			}
			if tc.status == http.StatusOK {
				_, _, keys, _ := parseFetchRequest(tc.body)
				if err := decodeBuckets(raw, len(keys), 1, make([]index.Bucket, len(keys))); err != nil {
					t.Fatalf("answer %x: %v", raw, err)
				}
				return
			}
			var we wireError
			if err := json.Unmarshal(raw, &we); err != nil || we.Error.Code == "" {
				t.Fatalf("refusal %q is not the error envelope", raw)
			}
			if tc.status == http.StatusBadRequest && we.Error.Code != "bad_request" {
				t.Fatalf("refused with code %q, want bad_request", we.Error.Code)
			}
		})
	}
}

// FuzzFetchRequest holds the node's request parser to its contract on
// arbitrary bodies: it never panics, and a body it accepts re-encodes
// byte for byte.
func FuzzFetchRequest(f *testing.F) {
	f.Add(appendFetchRequest(nil, 3, 1, [][]byte{[]byte(keyOf(1)), []byte(keyOf(2, 3)), nil}))
	f.Add(appendFetchRequest(nil, 1<<40, 0, nil))
	f.Add([]byte{0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f, 1})
	f.Add([]byte{0, 0, 1, 0x80, 0x00})
	f.Fuzz(func(t *testing.T, body []byte) {
		v, ci, keys, err := parseFetchRequest(body)
		if err != nil {
			return
		}
		if got := appendFetchRequest(nil, v, ci, keys); !bytes.Equal(got, body) {
			t.Fatalf("accepted %x, re-encodes to %x", body, got)
		}
	})
}

// dumpImage reads a node's /v1/internal/dump answer for version v.
func dumpImage(t *testing.T, url string, v uint64) []byte {
	t.Helper()
	resp, err := testOptions(t).Client.Get(fmt.Sprintf("%s/v1/internal/dump?v=%d", url, v))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	img, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("dump: status %d, %v", resp.StatusCode, err)
	}
	return img
}

// TestNodeImageIsCoordinatorsShare pins the load and dump paths to one
// encoding: after a load over the wire, each node's pinned image is
// byte-for-byte the checkpoint image of the share an in-process
// coordinator hands that partition for the same load — what the node
// installed is what the coordinator indexed and validated, and nothing
// was rebuilt on the way.
func TestNodeImageIsCoordinatorsShare(t *testing.T) {
	for _, tb := range []testbed{accidentsBed(t), socialBed(t)} {
		for _, k := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/K=%d", tb.name, k), func(t *testing.T) {
				local := loadedFleet(t, tb, "local", k)
				coord, _, urls := startCluster(t, tb, k, testOptions(t))
				if err := coord.Load(tb.build()); err != nil {
					t.Fatal(err)
				}
				for i, url := range urls {
					ix := pinnedIndexed(t, local.parts[i], 0)
					want, err := durable.EncodeCheckpoint(tb.schema, &durable.State{Instance: ix.Instance, Indexed: ix})
					if err != nil {
						t.Fatal(err)
					}
					if got := dumpImage(t, url, 0); !bytes.Equal(got, want) {
						t.Fatalf("node %d pins a %d-byte image, the coordinator's share encodes to %d bytes", i, len(got), len(want))
					}
				}
			})
		}
	}
}

// TestLoadRefusesForeignImage sends a node images it must not install —
// one built under another access schema, one with a corrupted byte —
// and demands a structured 400 for each, with the node still serving
// the version it held before.
func TestLoadRefusesForeignImage(t *testing.T) {
	tb := accidentsBed(t)
	ctx := context.Background()
	single := tb.single(t)
	coord, nodes, urls := startCluster(t, tb, 2, testOptions(t))
	if err := coord.Load(tb.build()); err != nil {
		t.Fatal(err)
	}
	grow := live.NewDelta(tb.schema)
	grow.MustInsert("Accident", iv(900001), sv("Nowhere"), sv("9/9/1999"))
	applyBoth(t, "grow", single, &fleet{eng: coord.Engine}, grow)

	other := access.NewSchema(tb.access.Constraints[1:]...)
	place, err := shard.NewPlacement(tb.schema, tb.access, 2)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := place.Share(tb.build(), 0)
	if err != nil {
		t.Fatal(err)
	}
	foreign, _, err := access.BuildIndexed(other, sub)
	if err != nil {
		t.Fatal(err)
	}
	ix := pinnedIndexed(t, nodes[0].part, 1)
	corrupt, err := durable.EncodeCheckpoint(tb.schema, &durable.State{Instance: ix.Instance, Indexed: ix})
	if err != nil {
		t.Fatal(err)
	}
	corrupt[len(corrupt)-1] ^= 0xff

	p := newPeerClient(0, urls[0], tb.schema, other, testOptions(t))
	for _, tc := range []struct {
		name string
		load func() error
	}{
		{"another access schema", func() error { return p.Load(ctx, foreign) }},
		{"bad CRC", func() error {
			return p.do(ctx, http.MethodPost, "/v1/internal/load", binaryType, corrupt, false, jsonInto(0, nil))
		}},
	} {
		name, err := tc.name, tc.load()
		var re *shard.Refusal
		if !errors.As(err, &re) || re.Status != http.StatusBadRequest || re.Code != "bad_request" {
			t.Fatalf("%s: load answered %v, want a 400 bad_request refusal", name, err)
		}
		if _, v := nodeHealth(t, urls[0]); v != 1 {
			t.Fatalf("%s: node 0 at version %d after a refused load, want 1", name, v)
		}
	}
	checkEquivalent(t, "Q0 after refused loads", single, coord, workload.Q0())
}

// pinnedIndexed is partition p's indexed share at version v.
func pinnedIndexed(t *testing.T, p shard.Partition, v uint64) *access.Indexed {
	t.Helper()
	view, err := p.Pin(v)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := view.Indexed(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

package cluster

import (
	"bytes"
	"context"
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

// TestFetchRefusesMalformedBuckets stands a node up that answers every
// fetch with one fixed body and demands the client refuse each
// malformed shape as shard_unavailable — never a panic, never a bucket
// that breaks the canonical order NewBucket and MergeBuckets rely on —
// while a well-formed answer decodes to exactly the buckets it carries.
// randomBed's constraint 0 is R(a → b): one cell per projection.
func TestFetchRefusesMalformedBuckets(t *testing.T) {
	tb := randomBed(t)
	valid := [][]value.Key{{keyOf(1), keyOf(2)}, {}}
	for _, tc := range []struct {
		name    string
		buckets [][]value.Key
		ok      bool
	}{
		{"well-formed", valid, true},
		{"fewer buckets than keys", valid[:1], false},
		{"more buckets than keys", append(valid, []value.Key{keyOf(3)}), false},
		{"projection too wide", [][]value.Key{{keyOf(1, 2)}, {}}, false},
		{"empty projection", [][]value.Key{{""}, {}}, false},
		{"projections descending", [][]value.Key{{keyOf(2), keyOf(1)}, {}}, false},
		{"projection repeated", [][]value.Key{{}, {keyOf(1), keyOf(1)}}, false},
		{"undecodable projection", [][]value.Key{{"\xff"}, {}}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body, err := json.Marshal(fetchResponse{Buckets: tc.buckets})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				w.Write(body)
			}))
			t.Cleanup(ts.Close)
			opts := testOptions(t)
			opts.Retries = -1
			view, _ := newPeerClient(0, ts.URL, tb.schema, tb.access, opts).Pin(0)
			out := make([]index.Bucket, 2)
			err = view.Fetcher(0).(plan.BatchFetcher).FetchBatch(context.Background(), [][]byte{[]byte(keyOf(1)), []byte(keyOf(2))}, out)
			if tc.ok {
				if err != nil {
					t.Fatalf("well-formed answer refused: %v", err)
				}
				for i, b := range out {
					if !slices.Equal(b.Keys(), tc.buckets[i]) {
						t.Fatalf("bucket %d decoded to %q, sent %q", i, b.Keys(), tc.buckets[i])
					}
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
// the buckets it carried.
func FuzzFetchResponse(f *testing.F) {
	seed, _ := json.Marshal(fetchResponse{Buckets: [][]value.Key{{keyOf(1), keyOf(2, 3)}, {}}})
	f.Add(seed, uint8(2), uint8(1))
	f.Add([]byte(`{"buckets":[["AgI="],[]]}`), uint8(2), uint8(1))
	f.Add([]byte(`{"buckets":null}`), uint8(0), uint8(2))
	f.Add([]byte(`{"buckets":[["/w=="]]}`), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, body []byte, n, arity uint8) {
		var resp fetchResponse
		if json.Unmarshal(body, &resp) != nil || arity == 0 {
			return
		}
		out := make([]index.Bucket, n)
		if decodeBuckets(resp.Buckets, int(n), int(arity), out) != nil {
			return
		}
		for i, b := range out {
			if got := b.Keys(); !slices.Equal(got, resp.Buckets[i]) {
				t.Fatalf("bucket %d: accepted %q, re-encodes to %q", i, resp.Buckets[i], got)
			}
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
			return p.do(ctx, http.MethodPost, "/v1/internal/load", imageType, corrupt, false, jsonInto(0, nil))
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

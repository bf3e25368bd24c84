package cluster

import (
	"bufio"
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
	"strings"
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

// TestFetchRefusesMalformedBuckets answers every fetch with one fixed
// body and demands the client refuse each malformed shape as
// shard_unavailable — never a panic, never a bucket that breaks the
// canonical order NewBucket and MergeBuckets rely on — while a
// well-formed answer decodes to exactly the buckets it carries.
// randomBed's constraint 0 is R(a → b): one cell per projection.
func TestFetchRefusesMalformedBuckets(t *testing.T) {
	tb := randomBed(t)
	_, _, urls := startCluster(t, tb, 1, testCooldown)
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
			p := testPeer(t, 0, urls[0], tb)
			p.retries = 0
			p.exchange = func(*peerConn, method, []byte) (int, []byte, error) { return http.StatusOK, tc.body, nil }
			view, _ := p.Pin(0)
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

// TestFetchRequestRefusals sends a node fetch bodies it must refuse
// and demands a structured refusal for each: 400 bad_request for a
// frame with a truncated body, trailing bytes, counts and lengths past
// the end, the JSON body the wire no longer speaks or a method it does
// not know, and 426 upgrade_required for a fetch sent as plain HTTP —
// while the well-formed request is answered.
func TestFetchRequestRefusals(t *testing.T) {
	tb := randomBed(t)
	coord, _, urls := startCluster(t, tb, 1, testCooldown)
	if err := coord.Load(tb.build()); err != nil {
		t.Fatal(err)
	}
	p := testPeer(t, 0, urls[0], tb)
	p.retries = 0
	hc := &http.Client{Transport: &http.Transport{}}
	t.Cleanup(hc.CloseIdleConnections)
	valid := appendFetchRequest(nil, 0, 0, [][]byte{[]byte(keyOf(1)), []byte(keyOf(2))})
	head := func(n uint64) []byte { return binary.AppendUvarint([]byte{0, 0}, n) }
	for _, tc := range []struct {
		name   string
		m      method
		body   []byte
		status int
		plain  string // the method of a plain-HTTP request, "" for a frame
	}{
		{"well-formed", mFetch, valid, http.StatusOK, ""},
		{"no keys", mFetch, head(0), http.StatusOK, ""},
		{"empty body", mFetch, nil, http.StatusBadRequest, ""},
		{"truncated body", mFetch, valid[:len(valid)-1], http.StatusBadRequest, ""},
		{"trailing bytes", mFetch, append(slices.Clip(valid), 0), http.StatusBadRequest, ""},
		{"key count past the body", mFetch, append(head(1<<40), 1, 2), http.StatusBadRequest, ""},
		{"key length past the body", mFetch, append(head(1), 50, 1, 2), http.StatusBadRequest, ""},
		{"non-minimal varint", mFetch, []byte{0x80, 0x00, 0, 0}, http.StatusBadRequest, ""},
		{"unknown constraint", mFetch, appendFetchRequest(nil, 0, 99, nil), http.StatusBadRequest, ""},
		{"JSON body", mFetch, []byte(`{"v":0,"ci":0,"keys":["AQI="]}`), http.StatusBadRequest, ""},
		{"unknown method", numMethods, valid, http.StatusBadRequest, ""},
		{"method zero", 0, valid, http.StatusBadRequest, ""},
		{"GET", mFetch, nil, http.StatusUpgradeRequired, http.MethodGet},
		{"no content type", mFetch, valid, http.StatusUpgradeRequired, http.MethodPost},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.plain != "" {
				req, err := http.NewRequest(tc.plain, urls[0]+"/v1/internal/fetch", bytes.NewReader(tc.body))
				if err != nil {
					t.Fatal(err)
				}
				resp, err := hc.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				var we wireError
				err = json.NewDecoder(resp.Body).Decode(&we)
				resp.Body.Close()
				if err != nil || resp.StatusCode != tc.status || we.Error.Code != "upgrade_required" {
					t.Fatalf("plain %s: %d %+v (%v), want %d upgrade_required", tc.plain, resp.StatusCode, we, err, tc.status)
				}
				return
			}
			answer, err := p.do(context.Background(), tc.m, tc.body, false)
			if tc.status == http.StatusOK {
				if err != nil {
					t.Fatalf("refused: %v", err)
				}
				_, _, keys, _ := parseFetchRequest(tc.body)
				if err := decodeBuckets(answer, len(keys), 1, make([]index.Bucket, len(keys))); err != nil {
					t.Fatalf("answer %x: %v", answer, err)
				}
				return
			}
			var re *shard.Refusal
			if !errors.As(err, &re) || re.Status != tc.status || re.Code != "bad_request" {
				t.Fatalf("answered %v, want a structured %d bad_request", err, tc.status)
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

// FuzzStageRequest holds the node's stage request decoding — the
// request, then its binary delta — to the same contract: it never
// panics, and a body it accepts re-encodes byte for byte.
func FuzzStageRequest(f *testing.F) {
	sc := workload.AccidentSchema()
	d := live.NewDelta(sc)
	d.MustInsert("Accident", iv(900001), sv("Nowhere"), sv("9/9/1999"))
	d.MustDelete("Vehicle", iv(7), sv("alice-1"), iv(30))
	f.Add(live.AppendDelta(request{txn: "txn-1", v: 7}.body(mStage), d))
	f.Add(request{txn: "t", v: 7}.body(mStage))
	f.Add([]byte{1, 't', 7, 8, 'A', 'c', 'c', 'i', 'd', 'e', 'n', 't', 0, 0})
	f.Add([]byte{1, 't', 0x87, 0x00})
	f.Fuzz(func(t *testing.T, body []byte) {
		var r request
		if decode(body, func(c *coder) { c.request(mStage, &r) }) != nil {
			return
		}
		if got := r.body(mStage); !bytes.Equal(got, body) {
			t.Fatalf("accepted %x, re-encodes to %x", body, got)
		}
		if d, err := live.DecodeDelta(r.delta, sc); err == nil {
			if got := live.AppendDelta(request{txn: r.txn, v: r.v}.body(mStage), d); !bytes.Equal(got, body) {
				t.Fatalf("accepted %x, its delta re-encodes to %x", body, got)
			}
		}
	})
}

// FuzzControlBodies holds every control body's coder — each method's
// request, and the status, stage, groups and number answers — to the
// wire's contract on arbitrary bodies: decoding never panics, and a body
// it accepts re-encodes byte for byte. The first byte picks the body: a
// method's request below numMethods, an answer above.
func FuzzControlBodies(f *testing.F) {
	const (
		aStatus = 0x80 + iota
		aStaged
		aGroups
		aVersionSize
	)
	keys := []value.Key{keyOf(1), value.KeyOf(sv("x"), iv(-2))}
	for m := method(1); m < numMethods; m++ {
		f.Add(append([]byte{byte(m)}, request{txn: "txn-9", v: 1 << 40, ci: 2, all: true, keys: keys}.body(m)...))
	}
	with := func(sel byte, code func(*coder)) []byte { return encode([]byte{sel}, code) }
	f.Add(with(aStatus, func(c *coder) {
		c.status(&shard.Status{Shard: 1, Shards: 4, Version: 9, Size: 300, Catalog: 0xdeadbeef})
	}))
	f.Add(with(aStaged, func(c *coder) {
		c.staged(&shard.Staged{Size: 5, OldSize: 3, Inserted: 2,
			Constraints: []shard.StagedConstraint{{}, {Touched: true, MaxInsert: 2, InsertKeys: keys}}})
	}))
	f.Add(with(aGroups, func(c *coder) { c.groups(&[]shard.Group{{Key: keyOf(3), Projs: keys}, {}}) }))
	f.Add([]byte{aVersionSize, 7, 0x80, 0x80, 0x01})
	f.Add([]byte{byte(mCommit), 1, 't', 0x80, 0x00})
	f.Add([]byte{byte(mGroups), 0, 0, 0, 2, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		var code func(*coder)
		switch sel := in[0]; {
		case sel < byte(numMethods):
			var r request
			code = func(c *coder) { c.request(method(sel), &r) }
		case sel == aStatus:
			var st shard.Status
			code = func(c *coder) { c.status(&st) }
		case sel == aStaged:
			var st shard.Staged
			code = func(c *coder) { c.staged(&st) }
		case sel == aGroups:
			var gs []shard.Group
			code = func(c *coder) { c.groups(&gs) }
		case sel == aVersionSize:
			var v uint64
			var size int
			code = func(c *coder) { c.versionSize(&v, &size) }
		default:
			return
		}
		if decode(in[1:], code) != nil {
			return
		}
		if got := encode(nil, code); !bytes.Equal(got, in[1:]) {
			t.Fatalf("body %#x accepted %x, re-encodes to %x", in[0], in[1:], got)
		}
	})
}

// dumpImage reads a node's dump answer for version v.
func dumpImage(t *testing.T, tb testbed, url string, v uint64) []byte {
	t.Helper()
	img, err := testPeer(t, 0, url, tb).do(context.Background(), mDump, request{v: v}.body(mDump), true)
	if err != nil {
		t.Fatalf("dump: %v", err)
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
				coord, _, urls := startCluster(t, tb, k, testCooldown)
				if err := coord.Load(tb.build()); err != nil {
					t.Fatal(err)
				}
				for i, url := range urls {
					ix := pinnedIndexed(t, local.parts[i], 0)
					want, err := durable.EncodeCheckpoint(tb.schema, &durable.State{Instance: ix.Instance, Indexed: ix})
					if err != nil {
						t.Fatal(err)
					}
					if got := dumpImage(t, tb, url, 0); !bytes.Equal(got, want) {
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
	coord, nodes, urls := startCluster(t, tb, 2, testCooldown)
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

	p := testPeer(t, 0, urls[0], testbed{schema: tb.schema, access: other})
	for _, tc := range []struct {
		name string
		load func() error
	}{
		{"another access schema", func() error { return p.Load(ctx, foreign) }},
		{"bad CRC", func() error {
			_, err := p.do(ctx, mLoad, corrupt, false)
			return err
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

// frameBytes is one frame as writeFrame sends it.
func frameBytes(head uint64, body []byte) []byte {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	writeFrame(w, head, body)
	return buf.Bytes()
}

// FuzzFrame holds both frame readers — the node's request reader and
// the client's answer reader — to their contract on arbitrary bytes:
// they never panic, a frame they accept re-encodes to exactly the bytes
// it took, and a frame cut short anywhere or claiming more than
// maxInternalBody is refused, so every byte read belongs to a whole
// frame.
func FuzzFrame(f *testing.F) {
	f.Add(frameBytes(uint64(mFetch), appendFetchRequest(nil, 1, 0, [][]byte{[]byte(keyOf(1))})))
	f.Add(append(frameBytes(uint64(mStatus), nil), frameBytes(uint64(mCommit), request{txn: "t", v: 1}.body(mCommit))...))
	f.Add(frameBytes(http.StatusOK, answerBody([]value.Key{keyOf(1)})))
	f.Add(frameBytes(http.StatusUpgradeRequired, []byte(`{"error":{"code":"upgrade_required"}}`)))
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0xff, 0x0f})       // claims 4 GiB
	f.Add([]byte{0xc8, 0x01, 0x80, 0x80, 0x80, 0x02, 1}) // claims 4 MiB, carries 1 byte
	f.Add([]byte{0x80, 0x00, 0})                         // non-minimal head
	f.Fuzz(func(t *testing.T, data []byte) {
		readers := map[string]func(*bufio.Reader) (uint64, []byte, error){
			"request": func(r *bufio.Reader) (uint64, []byte, error) {
				m, body, err := readRequest(r)
				return uint64(m), body, err
			},
			"answer": func(r *bufio.Reader) (uint64, []byte, error) {
				status, body, err := readAnswer(r)
				return uint64(status), body, err
			},
		}
		for name, read := range readers {
			r := bufio.NewReader(bytes.NewReader(data))
			var took []byte
			for {
				head, body, err := read(r)
				if err != nil {
					if err == io.EOF && len(took) != len(data) {
						t.Fatalf("%s reader: clean EOF after %d of %d bytes", name, len(took), len(data))
					}
					break
				}
				if len(body) > maxInternalBody {
					t.Fatalf("%s reader: accepted a %d-byte body", name, len(body))
				}
				took = append(took, frameBytes(head, body)...)
				if !bytes.HasPrefix(data, took) {
					t.Fatalf("%s reader: accepted frames re-encode to %x, not a prefix of %x", name, took, data)
				}
			}
		}
	})
}

// TestRetiredWireRefused pins the node's answer to anything but the
// upgrade to its framed wire — a plain-HTTP call of a retired per-call
// path, an upgrade to another protocol — as 426 upgrade_required naming
// the protocol it speaks, and a coordinator's answer to a handshake that
// is not switched as shard_unavailable carrying the status it got.
func TestRetiredWireRefused(t *testing.T) {
	tb := randomBed(t)
	_, _, urls := startCluster(t, tb, 1, testCooldown)
	hc := &http.Client{Transport: &http.Transport{}}
	t.Cleanup(hc.CloseIdleConnections)
	for _, tc := range []struct{ method, path, upgrade string }{
		{http.MethodGet, "/v1/internal/status", ""},
		{http.MethodPost, "/v1/internal/commit", wireProtocol},
		{http.MethodGet, connPath, ""},
		{http.MethodGet, connPath, "beserve-partition/0"},
		{http.MethodGet, connPath, "beserve-partition/1"},
		{http.MethodPost, connPath, wireProtocol},
	} {
		req, err := http.NewRequest(tc.method, urls[0]+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if tc.upgrade != "" {
			req.Header.Set("Connection", "Upgrade")
			req.Header.Set("Upgrade", tc.upgrade)
		}
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var we wireError
		err = json.NewDecoder(resp.Body).Decode(&we)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusUpgradeRequired || we.Error.Code != "upgrade_required" ||
			resp.Header.Get("Upgrade") != wireProtocol || !strings.Contains(we.Error.Message, wireProtocol) {
			t.Errorf("%s %s (Upgrade %q): %d Upgrade %q %+v (%v), want 426 upgrade_required naming %s",
				tc.method, tc.path, tc.upgrade, resp.StatusCode, resp.Header.Get("Upgrade"), we, err, wireProtocol)
		}
	}

	// A coordinator pointed at something that does not switch — here an
	// endpoint answering like a coordinator's public API — is refused at
	// the handshake.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reply(w, nil, &shard.Refusal{Status: http.StatusMisdirectedRequest, Code: "not_coordinator", Message: "not a node"})
	}))
	t.Cleanup(ts.Close)
	p := testPeer(t, 0, ts.URL, tb)
	p.retries = 0
	_, err := p.Status(context.Background())
	var ue *UnavailableError
	if !errors.As(err, &ue) || codedError(err) != "shard_unavailable" || !strings.Contains(err.Error(), "421") {
		t.Fatalf("handshake refused with 421 gave %v, want shard_unavailable naming the status", err)
	}
}

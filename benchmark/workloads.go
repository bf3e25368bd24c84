package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/access"
	"repro/internal/cq"
	"repro/internal/data"
	"repro/internal/schema"
	"repro/internal/value"
	"repro/internal/workload"
)

type (
	dataKind int
	reqKind  int
	topoKind int
)

const (
	dataAccidents dataKind = iota
	dataSocial
)

const (
	// reqPoint: catalog queries shaped like Example 1.1's Q0, one per
	// seeded (district, date) pair.
	reqPoint reqKind = iota
	// reqAdhoc: every request is fresh query text, so the plan cache
	// misses.
	reqAdhoc
	// reqWide: catalog two-hop queries with answers of several hundred
	// rows.
	reqWide
)

const (
	topoSingle topoKind = iota
	topoShard
	topoCluster
)

// workloadSpec is one traffic mix against one topology. Everything the
// harness does differently per workload is read from these fields; the
// program under test sees only the requests.
type workloadSpec struct {
	Name string
	// Why records what the workload isolates (the README and
	// BENCHMARK.json carry the same sentence).
	Why     string
	data    dataKind
	reqs    reqKind
	topo    topoKind
	k       int
	durable bool
	// writer adds a third connection that posts one stream delta every
	// writeEvery (at once, if the previous apply outlasted the period).
	writer     bool
	writeEvery time.Duration
	// tracedRequests and tracedDeltas size the traced pass.
	tracedRequests, tracedDeltas int
}

var workloads = []workloadSpec{
	{Name: "point_single", data: dataAccidents, reqs: reqPoint, topo: topoSingle, tracedRequests: 2000,
		Why: "64 cached point queries on one engine: only the fixed per-request cost works; the control for every other workload"},
	{Name: "adhoc_single", data: dataSocial, reqs: reqAdhoc, topo: topoSingle, tracedRequests: 2000,
		Why: "fresh ad-hoc query text each request, so the plan cache misses and parser, canonical key and planner dominate"},
	{Name: "wide_single", data: dataSocial, reqs: reqWide, topo: topoSingle, tracedRequests: 2000,
		Why: "two-hop answers of several hundred rows: join, dedup and NDJSON row encoding dominate, per-request overhead is noise"},
	{Name: "point_cluster_k4", data: dataAccidents, reqs: reqPoint, topo: topoCluster, k: 4, tracedRequests: 300,
		Why: "the point_single requests through a coordinator over 4 loopback nodes: the whole difference is peer RPCs, wire buckets and merge"},
	{Name: "rw_shard_k4", data: dataAccidents, reqs: reqPoint, topo: topoShard, k: 4, durable: true, writer: true, writeEvery: 250 * time.Millisecond,
		tracedRequests: 2000, tracedDeltas: 40,
		Why: "the point_single reads on a durable 4-shard engine beside a writer posting 4 deltas a second: split, stage, validate, WAL fsync, swap"},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// scale sizes the generated datasets. fullScale (≈395k accident tuples,
// ≈598k social tuples) is far above the 30-day instances the older
// experiments use, so work that is accidentally O(|D|) shows in
// setup_s, heap and apply latency; only the package's tests run smaller.
type scale struct {
	accidentDays, socialPeople int
}

var fullScale = scale{accidentDays: 2000, socialPeople: 20000}

const (
	accidentsPerDay = 40
	maxVehicles     = 6
	maxFriends      = 50
	maxLikes        = 10

	distinctQueries = 64
	// seqLen is the length of a client's pre-generated request sequence;
	// a client that exhausts it wraps around.
	seqLen = 1 << 15
)

// dataset generates the same instance on every call: the served
// topology takes ownership of one copy, the reference engine of another.
type dataset struct {
	schema   *schema.Schema
	access   *access.Schema
	generate func() (*data.Instance, error)
}

func newDataset(kind dataKind, seed int64, sc scale) dataset {
	if kind == dataSocial {
		return dataset{
			schema: workload.SocialSchema(),
			access: workload.SocialConstraints(maxFriends, maxLikes),
			generate: func() (*data.Instance, error) {
				soc, err := workload.GenerateSocial(workload.SocialConfig{
					People: sc.socialPeople, MaxFriends: maxFriends, MaxLikes: maxLikes, Seed: seed})
				if err != nil {
					return nil, err
				}
				return soc.Instance, nil
			},
		}
	}
	return dataset{
		schema: workload.AccidentSchema(),
		access: workload.AccidentConstraints(),
		generate: func() (*data.Instance, error) {
			acc, err := workload.GenerateAccidents(workload.AccidentConfig{
				Days: sc.accidentDays, AccidentsPerDay: accidentsPerDay, MaxVehicles: maxVehicles, Seed: seed})
			if err != nil {
				return nil, err
			}
			return acc.Instance, nil
		},
	}
}

// request is one POST /v1/query with what the harness knows about its
// answer.
type request struct {
	// id is the request's index among the distinct requests, -1 for an
	// ad-hoc request outside them.
	id int
	// body is the JSON request body.
	body []byte
	// query is the same query for in-process layer probes; nil for
	// ad-hoc text, which the probes parse themselves.
	query *cq.CQ
	text  string
	// wantRows is the expected row count: from the reference answer for
	// a verified request, from socialFacts for unverified ad-hoc ones,
	// -1 while unknown.
	wantRows int
	// want is the reference NDJSON answer and fetched the tuples the
	// served topology fetched for it (verified requests only).
	want    []byte
	fetched int64
}

// mix is a workload's generated traffic: the catalog the server
// publishes, the distinct requests verified before timing (also the
// warm-up set), and one request sequence per client.
type mix struct {
	catalog  map[string]*cq.CQ
	distinct []*request
	seqs     [][]*request
}

// Salts keep the dataset, request and stream random sequences apart.
const (
	saltRequests = 0x5eed0001
	saltStream   = 0x5eed0002
)

func marshalBody(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // a struct of strings cannot fail to marshal
	}
	return b
}

// pointQuery is Example 1.1's Q0 with its two constants replaced.
func pointQuery(label, district, date string) *cq.CQ {
	q := workload.Q0()
	q.Label = label
	q.Atoms[0].Args[1] = cq.Const(value.NewString(district))
	q.Atoms[0].Args[2] = cq.Const(value.NewString(date))
	return q
}

func adhocText(pid int, city, topic string) string {
	return fmt.Sprintf(`query Z(f) :- Friend(me, f), Person(f, n, %q), Likes(f, %q), me = %d.`, city, topic, pid)
}

// newMix generates a workload's traffic from the seed. facts is needed
// only over social data: for ad-hoc requests' expected row counts and
// to spread the wide queries' anchors over the out-degrees.
func newMix(kind reqKind, seed int64, sc scale, facts *socialFacts) *mix {
	rng := rand.New(rand.NewSource(seed ^ saltRequests))
	m := &mix{catalog: map[string]*cq.CQ{}}
	var anchors []int
	if kind == reqWide {
		anchors = facts.anchorsByDegree(rng, distinctQueries)
	}
	adhoc := func() *request {
		pid := 1 + rng.Intn(sc.socialPeople)
		city, topic := rng.Intn(len(workload.Cities)), rng.Intn(len(workload.Topics))
		text := adhocText(pid, workload.Cities[city], workload.Topics[topic])
		return &request{
			body: marshalBody(struct {
				Text string `json:"text"`
			}{text}),
			text:     text,
			wantRows: facts.graphSearchRows(pid, city, topic),
		}
	}
	for i := 0; i < distinctQueries; i++ {
		name := fmt.Sprintf("q%02d", i)
		var r *request
		switch kind {
		case reqAdhoc:
			r = adhoc()
		case reqWide:
			q := workload.PatternQueries(int64(anchors[i]))[1] // path2
			q.Label = name
			r = &request{query: q, wantRows: -1}
		default:
			r = &request{wantRows: -1, query: pointQuery(name,
				workload.Districts[rng.Intn(len(workload.Districts))],
				workload.DateName(rng.Intn(sc.accidentDays)))}
		}
		if r.query != nil {
			m.catalog[name] = r.query
			r.body = marshalBody(struct {
				Query string `json:"query"`
			}{name})
		}
		r.id = i
		m.distinct = append(m.distinct, r)
	}
	for c := 0; c < numClients; c++ {
		seq := make([]*request, seqLen)
		for i := range seq {
			if kind == reqAdhoc {
				seq[i] = adhoc()
			} else {
				seq[i] = m.distinct[rng.Intn(len(m.distinct))]
			}
		}
		m.seqs = append(m.seqs, seq)
	}
	return m
}

// socialFacts answers the ad-hoc graph-search query straight from the
// generated tuples — a second implementation, independent of the
// engine, that prices an expected row count at a few dozen map-free
// lookups, so each of ~10⁵ distinct ad-hoc requests can be checked.
type socialFacts struct {
	friends [][]int32
	city    []uint8
	likes   []uint8 // bit t set: likes workload.Topics[t]
}

func newSocialFacts(inst *data.Instance) *socialFacts {
	per := inst.Relation("Person")
	f := &socialFacts{
		friends: make([][]int32, per.Len()+1),
		city:    make([]uint8, per.Len()+1),
		likes:   make([]uint8, per.Len()+1),
	}
	for i := 0; i < per.Len(); i++ {
		f.city[per.ValueAt(i, 0).Int()] = uint8(slices.Index(workload.Cities, per.ValueAt(i, 2).Str()))
	}
	lik := inst.Relation("Likes")
	for i := 0; i < lik.Len(); i++ {
		f.likes[lik.ValueAt(i, 0).Int()] |= 1 << slices.Index(workload.Topics, lik.ValueAt(i, 1).Str())
	}
	fr := inst.Relation("Friend")
	for i := 0; i < fr.Len(); i++ {
		p := fr.ValueAt(i, 0).Int()
		f.friends[p] = append(f.friends[p], int32(fr.ValueAt(i, 1).Int()))
	}
	return f
}

// anchorsByDegree draws n people whose out-degrees step evenly from 1
// to the largest present. A two-hop answer's size is the anchor's
// degree times ~25, and degrees are uniform on 1..50, so 64 uniform
// draws would let the seed move the mix's cost per query by ±10%;
// stepping through the degrees leaves the seed only the choice of
// person within each.
func (f *socialFacts) anchorsByDegree(rng *rand.Rand, n int) []int {
	byDegree := map[int][]int{}
	top := 0
	for p := 1; p < len(f.friends); p++ {
		d := len(f.friends[p])
		byDegree[d] = append(byDegree[d], p)
		top = max(top, d)
	}
	out := make([]int, n)
	for i := range out {
		d := 1 + i*top/n
		for len(byDegree[d]) == 0 { // top is present, so this ends
			d++
		}
		out[i] = byDegree[d][rng.Intn(len(byDegree[d]))]
	}
	return out
}

// graphSearchRows counts me's friends who live in city and like topic.
// Friend is a set, so each friend appears once.
func (f *socialFacts) graphSearchRows(me, city, topic int) int {
	n := 0
	for _, fid := range f.friends[me] {
		if int(f.city[fid]) == city && f.likes[fid]&(1<<topic) != 0 {
			n++
		}
	}
	return n
}

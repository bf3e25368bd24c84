// Package workload generates the synthetic datasets and query workloads
// that stand in for the paper's experimental data (UK road accidents
// 1979-2005 [1], Facebook-style social graphs [16], and e-commerce
// catalogs), plus the random CQ workloads behind the Introduction's
// "77% of conjunctive queries are boundedly evaluable" measurement.
//
// Generators are deterministic given a seed, and every generated instance
// satisfies its access schema BY CONSTRUCTION with the same bounds the
// paper reports (≤ 610 accidents/day, ≤ 192 casualties/accident, keys on
// aid and vid) — bounded evaluation's cost model depends only on Q and the
// constants in A, so constraint-faithful synthetic data preserves the
// measured phenomenon.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/access"
	"repro/internal/cq"
	"repro/internal/data"
	"repro/internal/schema"
	"repro/internal/value"
)

func iv(i int64) value.Value                          { return value.NewInt(i) }
func sv(s string) value.Value                         { return value.NewString(s) }
func attrs(as ...schema.Attribute) []schema.Attribute { return as }

// Districts are the district names used by the accident generator; the
// first one is the Example 1.1 target.
var Districts = []string{
	"Queen's Park", "Soho", "Camden", "Leith", "Morningside",
	"Hackney", "Brixton", "Didsbury", "Jericho", "Heaton",
}

// AccidentConfig sizes the UK-accidents-style dataset.
type AccidentConfig struct {
	// Days of data; day 0 is "1/5/2005" (the Example 1.1 date).
	Days int
	// AccidentsPerDay per day (must be ≤ 610 to honor ψ1).
	AccidentsPerDay int
	// MaxVehicles per accident (≤ 192 for ψ2); the generator draws
	// 1..MaxVehicles with mean ≈ 2, matching the paper's observation that
	// "accidents involved two vehicles on average".
	MaxVehicles int
	Seed        int64
}

// DefaultAccidentConfig returns a laptop-sized configuration.
func DefaultAccidentConfig() AccidentConfig {
	return AccidentConfig{Days: 50, AccidentsPerDay: 40, MaxVehicles: 6, Seed: 1}
}

// Accidents is a generated accident dataset with its schema and the
// Example 1.1 access schema ψ1–ψ4.
type Accidents struct {
	Schema   *schema.Schema
	Access   *access.Schema
	Instance *data.Instance
}

// AccidentSchema returns the three-relation schema of Example 1.1.
func AccidentSchema() *schema.Schema {
	return schema.MustNew(
		schema.MustRelation("Accident", "aid", "district", "date"),
		schema.MustRelation("Casualty", "cid", "aid", "class", "vid"),
		schema.MustRelation("Vehicle", "vid", "driver", "age"),
	)
}

// AccidentConstraints returns ψ1–ψ4 of Example 1.1.
func AccidentConstraints() *access.Schema {
	return access.NewSchema(
		access.NewConstraint("Accident", attrs("date"), attrs("aid"), 610),
		access.NewConstraint("Casualty", attrs("aid"), attrs("vid"), 192),
		access.NewConstraint("Accident", attrs("aid"), attrs("district", "date"), 1),
		access.NewConstraint("Vehicle", attrs("vid"), attrs("driver", "age"), 1),
	)
}

// DateName renders day i as a date string; day 0 is the Example 1.1 date.
func DateName(i int) string {
	if i == 0 {
		return "1/5/2005"
	}
	return fmt.Sprintf("%d/%d/%d", 1+i%28, 1+(i/28)%12, 1979+i/336)
}

// GenerateAccidents builds the dataset.
func GenerateAccidents(cfg AccidentConfig) (*Accidents, error) {
	if cfg.AccidentsPerDay > 610 {
		return nil, fmt.Errorf("workload: AccidentsPerDay %d violates ψ1 (≤ 610)", cfg.AccidentsPerDay)
	}
	if cfg.MaxVehicles > 192 {
		return nil, fmt.Errorf("workload: MaxVehicles %d violates ψ2 (≤ 192)", cfg.MaxVehicles)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := AccidentSchema()
	d := data.NewInstance(s)
	aid, cid, vid := int64(0), int64(0), int64(0)
	for day := 0; day < cfg.Days; day++ {
		date := sv(DateName(day))
		for a := 0; a < cfg.AccidentsPerDay; a++ {
			aid++
			district := sv(Districts[rng.Intn(len(Districts))])
			d.MustInsert("Accident", iv(aid), district, date)
			// Mean ≈ 2 vehicles: geometric-ish draw capped at MaxVehicles.
			n := 1
			for n < cfg.MaxVehicles && rng.Float64() < 0.5 {
				n++
			}
			for v := 0; v < n; v++ {
				cid++
				vid++
				d.MustInsert("Casualty", iv(cid), iv(aid), iv(int64(1+rng.Intn(3))), iv(vid))
				d.MustInsert("Vehicle", iv(vid), sv(driverName(rng)), iv(int64(17+rng.Intn(70))))
			}
		}
	}
	return &Accidents{Schema: s, Access: AccidentConstraints(), Instance: d}, nil
}

func driverName(rng *rand.Rand) string {
	first := []string{"alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi"}
	return fmt.Sprintf("%s-%d", first[rng.Intn(len(first))], rng.Intn(10000))
}

// Q0 is the Example 1.1 query: ages of drivers in accidents in Queen's
// Park on 1/5/2005.
func Q0() *cq.CQ {
	return &cq.CQ{
		Label: "Q0", Free: []string{"xa"},
		Atoms: []cq.Atom{
			cq.NewAtom("Accident", cq.Var("aid"), cq.Const(sv("Queen's Park")), cq.Const(sv("1/5/2005"))),
			cq.NewAtom("Casualty", cq.Var("cid"), cq.Var("aid"), cq.Var("class"), cq.Var("vid")),
			cq.NewAtom("Vehicle", cq.Var("vid"), cq.Var("dri"), cq.Var("xa")),
		},
	}
}

// Path3Query is the 3-hop friend walk anchored at a person constant —
// the serving-layer stress query on the social workload: its final fetch
// fans out over thousands of distinct keys.
func Path3Query(me int64) *cq.CQ {
	return &cq.CQ{
		Label: "path3", Free: []string{"h"},
		Atoms: []cq.Atom{
			cq.NewAtom("Friend", cq.Var("me"), cq.Var("f")),
			cq.NewAtom("Friend", cq.Var("f"), cq.Var("g")),
			cq.NewAtom("Friend", cq.Var("g"), cq.Var("h")),
		},
		Eqs: []cq.Eq{{L: cq.Var("me"), R: cq.Const(iv(me))}},
	}
}

// Q51 is Example 5.1's parameterized query (parameters date, district).
func Q51() (*cq.CQ, []string) {
	q := &cq.CQ{
		Label: "Q51", Free: []string{"xa"},
		Atoms: []cq.Atom{
			cq.NewAtom("Accident", cq.Var("aid"), cq.Var("district"), cq.Var("date")),
			cq.NewAtom("Casualty", cq.Var("cid"), cq.Var("aid"), cq.Var("class"), cq.Var("vid")),
			cq.NewAtom("Vehicle", cq.Var("vid"), cq.Var("dri"), cq.Var("xa")),
		},
	}
	return q, []string{"date", "district"}
}

// SocialConfig sizes the relational social graph (the Graph Search
// workload of the Introduction).
type SocialConfig struct {
	People int
	// MaxFriends bounds out-degree (the access constraint's N).
	MaxFriends int
	// MaxLikes bounds interests per person.
	MaxLikes int
	Seed     int64
}

// DefaultSocialConfig returns a laptop-sized configuration.
func DefaultSocialConfig() SocialConfig {
	return SocialConfig{People: 2000, MaxFriends: 50, MaxLikes: 10, Seed: 2}
}

// Cities and Topics are the attribute value pools.
var (
	Cities = []string{"NYC", "Edinburgh", "Antwerp", "Beijing", "SF", "London"}
	Topics = []string{"cycling", "chess", "jazz", "databases", "hiking", "tea"}
)

// Social is a generated social workload.
type Social struct {
	Schema   *schema.Schema
	Access   *access.Schema
	Instance *data.Instance
}

// SocialSchema returns Person/Friend/Likes.
func SocialSchema() *schema.Schema {
	return schema.MustNew(
		schema.MustRelation("Person", "pid", "name", "city"),
		schema.MustRelation("Friend", "pid", "fid"),
		schema.MustRelation("Likes", "pid", "topic"),
	)
}

// SocialConstraints returns the degree-bounded access schema: person id is
// a key, friend lists and interest lists are bounded.
func SocialConstraints(maxFriends, maxLikes int) *access.Schema {
	return access.NewSchema(
		access.NewConstraint("Person", attrs("pid"), attrs("name", "city"), 1),
		access.NewConstraint("Friend", attrs("pid"), attrs("fid"), maxFriends),
		access.NewConstraint("Likes", attrs("pid"), attrs("topic"), maxLikes),
	)
}

// GenerateSocial builds the social dataset: a preferential-attachment-ish
// friendship graph with hard degree caps.
func GenerateSocial(cfg SocialConfig) (*Social, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := SocialSchema()
	d := data.NewInstance(s)
	deg := make([]int, cfg.People+1)
	for p := 1; p <= cfg.People; p++ {
		d.MustInsert("Person", iv(int64(p)), sv(fmt.Sprintf("user%d", p)), sv(Cities[rng.Intn(len(Cities))]))
		nLikes := 1 + rng.Intn(cfg.MaxLikes)
		for l := 0; l < nLikes; l++ {
			d.MustInsert("Likes", iv(int64(p)), sv(Topics[rng.Intn(len(Topics))]))
		}
		nFriends := 1 + rng.Intn(cfg.MaxFriends)
		for f := 0; f < nFriends && deg[p] < cfg.MaxFriends; f++ {
			// Prefer low ids (older nodes): a crude power-law skew.
			q := 1 + rng.Intn(1+rng.Intn(cfg.People))
			if q == p {
				continue
			}
			d.MustInsert("Friend", iv(int64(p)), iv(int64(q)))
			deg[p]++
		}
	}
	return &Social{Schema: s, Access: SocialConstraints(cfg.MaxFriends, cfg.MaxLikes), Instance: d}, nil
}

// GraphSearchQuery is the Introduction's personalized search: "find me all
// my friends in city c who like topic t", parameterized by me.
func GraphSearchQuery(me int64, city, topic string) *cq.CQ {
	return &cq.CQ{
		Label: "GraphSearch", Free: []string{"f"},
		Atoms: []cq.Atom{
			cq.NewAtom("Friend", cq.Var("me"), cq.Var("f")),
			cq.NewAtom("Person", cq.Var("f"), cq.Var("n"), cq.Const(sv(city))),
			cq.NewAtom("Likes", cq.Var("f"), cq.Const(sv(topic))),
		},
		Eqs: []cq.Eq{{L: cq.Var("me"), R: cq.Const(iv(me))}},
	}
}

// PatternQueries returns a family of graph-pattern-style CQs over the
// social schema, labeled, for the E6 coverage-rate experiment: stars,
// paths and triangle-ish patterns anchored (or not) at a person constant.
func PatternQueries(me int64) []*cq.CQ {
	anchor := cq.Eq{L: cq.Var("me"), R: cq.Const(iv(me))}
	return []*cq.CQ{
		// Anchored 1-hop star.
		{Label: "star1", Free: []string{"f"},
			Atoms: []cq.Atom{cq.NewAtom("Friend", cq.Var("me"), cq.Var("f"))},
			Eqs:   []cq.Eq{anchor}},
		// Anchored 2-hop path.
		{Label: "path2", Free: []string{"g"},
			Atoms: []cq.Atom{
				cq.NewAtom("Friend", cq.Var("me"), cq.Var("f")),
				cq.NewAtom("Friend", cq.Var("f"), cq.Var("g")),
			},
			Eqs: []cq.Eq{anchor}},
		// Anchored friends-in-city.
		{Label: "cityFriends", Free: []string{"f", "c"},
			Atoms: []cq.Atom{
				cq.NewAtom("Friend", cq.Var("me"), cq.Var("f")),
				cq.NewAtom("Person", cq.Var("f"), cq.Var("n"), cq.Var("c")),
			},
			Eqs: []cq.Eq{anchor}},
		// Anchored common-interest triangle.
		{Label: "triangle", Free: []string{"f", "g"},
			Atoms: []cq.Atom{
				cq.NewAtom("Friend", cq.Var("me"), cq.Var("f")),
				cq.NewAtom("Friend", cq.Var("f"), cq.Var("g")),
				cq.NewAtom("Friend", cq.Var("me"), cq.Var("g")),
			},
			Eqs: []cq.Eq{anchor}},
		// UNANCHORED pair (not boundedly evaluable: no constant seed).
		{Label: "allPairs", Free: []string{"p", "f"},
			Atoms: []cq.Atom{cq.NewAtom("Friend", cq.Var("p"), cq.Var("f"))}},
		// Unanchored city census.
		{Label: "census", Free: []string{"p"},
			Atoms: []cq.Atom{cq.NewAtom("Person", cq.Var("p"), cq.Var("n"), cq.Const(sv("NYC")))}},
	}
}

package main

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/data"
	"repro/internal/eval"
	"repro/internal/ndjson"
	"repro/internal/parser"
)

// cqOf is the request's query as a CQ: the catalog query, or the
// ad-hoc text parsed the way the server parses it.
func (fx *fixture) cqOf(r *request) (*cq.CQ, error) {
	if r.query != nil {
		return r.query, nil
	}
	qs, err := parser.ParseQueryRules(r.text, fx.data.schema)
	if err != nil {
		return nil, err
	}
	if len(qs) != 1 || !qs[0].IsCQ() {
		return nil, fmt.Errorf("ad-hoc text is not one conjunctive query: %s", r.text)
	}
	return qs[0].Subs[0], nil
}

// reference returns the single-node engine every answer is checked
// against, building it on first use. On a single-engine topology it is
// the served engine called in-process; otherwise a core.Engine over a
// second generation of the same data.
func (fx *fixture) reference() (*core.Engine, error) {
	if fx.ref != nil {
		return fx.ref, nil
	}
	if fx.single != nil {
		fx.ref = fx.single
		return fx.ref, nil
	}
	inst, err := fx.data.generate()
	if err != nil {
		return nil, err
	}
	ref, err := core.New(fx.data.schema, fx.data.access, core.Options{})
	if err != nil {
		return nil, err
	}
	if err := ref.Load(inst); err != nil {
		return nil, err
	}
	fx.ref = ref
	return ref, nil
}

func sortedKeys(rows []data.Tuple) []string {
	keys := make([]string, len(rows))
	for i, row := range rows {
		keys[i] = string(row.Key())
	}
	sort.Strings(keys)
	return keys
}

// fullEvalSample is how many of the distinct requests are also checked
// against full evaluation: a hash join over the whole instance costs
// 0.1–0.3 s per query at these sizes, so all 64 would cost more than
// the timed window. The requests are seeded draws, so which ones are
// checked changes with the seed.
const fullEvalSample = 4

// verify is the correctness oracle, run before any timing. For every
// distinct request the wire answer must equal, byte for byte,
// ndjson.Write of the reference engine's answer; for the first
// fullEvalSample the reference answer's row set must also equal full
// evaluation (eval's hash join, which shares no code with bounded
// plans). It records each request's expected row count for the checks
// made while timing.
func (fx *fixture) verify() error {
	ref, err := fx.reference()
	if err != nil {
		return err
	}
	cl := newClient(fx.url)
	defer cl.close()
	for i, r := range fx.mix.distinct {
		q, err := fx.cqOf(r)
		if err != nil {
			return fmt.Errorf("request %d: %w", i, err)
		}
		res, err := ref.Query(context.Background(), q)
		if err != nil {
			return fmt.Errorf("request %d: reference: %w", i, err)
		}
		if i < fullEvalSample {
			full, err := ref.Baseline(q, eval.HashJoin)
			if err != nil {
				return fmt.Errorf("request %d: full evaluation: %w", i, err)
			}
			if got, want := sortedKeys(res.Rows), sortedKeys(full.Rows); !slices.Equal(got, want) {
				return fmt.Errorf("request %d: reference answer has %d rows, full evaluation %d, or they differ",
					i, len(got), len(want))
			}
		}
		var want bytes.Buffer
		if err := ndjson.Write(&want, res, nil); err != nil {
			return fmt.Errorf("request %d: encoding the reference answer: %w", i, err)
		}
		if r.wantRows >= 0 && r.wantRows != len(res.Rows) {
			return fmt.Errorf("request %d: reference answers %d rows, the generator's own count is %d",
				i, len(res.Rows), r.wantRows)
		}
		r.want, r.wantRows = want.Bytes(), len(res.Rows)
		a, err := cl.query(r)
		if err != nil {
			return fmt.Errorf("request %d over the wire: %w", i, err)
		}
		r.fetched = a.fetched
		if !bytes.Equal(a.body, r.want) {
			return fmt.Errorf("request %d: wire answer (%d bytes) differs from the reference answer (%d bytes)",
				i, len(a.body), len(r.want))
		}
	}
	return nil
}

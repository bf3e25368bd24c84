package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/workload"
)

// fuzzServer is built once per process: a tiny accidents engine behind
// the full handler stack, so every fuzz input exercises exactly what a
// real request would.
var (
	fuzzOnce sync.Once
	fuzzSrv  *Server
)

func fuzzHandler(t testing.TB) *Server {
	fuzzOnce.Do(func() {
		acc, err := workload.GenerateAccidents(workload.AccidentConfig{
			Days: 1, AccidentsPerDay: 5, MaxVehicles: 2, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := core.New(acc.Schema, acc.Access, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Load(acc.Instance); err != nil {
			t.Fatal(err)
		}
		fuzzSrv, err = New(eng, Catalog{
			Schema:  acc.Schema,
			Access:  acc.Access,
			Queries: map[string]*cq.CQ{"Q0": workload.Q0()},
		}, Options{})
		if err != nil {
			t.Fatal(err)
		}
	})
	return fuzzSrv
}

// FuzzQueryRequest hammers the POST /v1/query decoder and handler with
// arbitrary bodies. The contract under fuzz: the server never panics
// and never answers 500 — malformed options, bad query strings and
// absurd budgets are all structured 4xx payloads (a 504 is allowed:
// "timeout":"1ns" is a well-formed request whose deadline passes).
func FuzzQueryRequest(f *testing.F) {
	f.Add(`{"query":"Q0"}`)
	f.Add(`{"query":"Q0","budget":100,"timeout":"2s","fallback":"refuse"}`)
	f.Add(`{"text":"query Z(x) :- Vehicle(x, d, a)."}`)
	f.Add(`{"text":"query Z(d) :- Accident(a, d, dt).","fallback":"envelope"}`)
	f.Add(`{nope`)
	f.Add(`{}`)
	f.Add(`{"query":"Ghost"}`)
	f.Add(`{"query":"Q0","budget":-99}`)
	f.Add(`{"query":"Q0","budget":9223372036854775807}`)
	f.Add(`{"query":"Q0","timeout":"soon"}`)
	f.Add(`{"query":"Q0","timeout":"1ns"}`)
	f.Add(`{"query":"Q0","fallback":"maybe"}`)
	f.Add(`{"query":"Q0","unknown_field":true}`)
	f.Add(`{"query":"Q0"} trailing`)
	f.Add(`{"text":"query "}`)
	f.Add(`{"text":"relation R(a)"}`)
	f.Add(`[1,2,3]`)
	f.Add(`"just a string"`)
	f.Add("\x00\xff\xfe")
	f.Fuzz(func(t *testing.T, body string) {
		srv := fuzzHandler(t)
		req := httptest.NewRequest("POST", "/v1/query", strings.NewReader(body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req) // must not panic
		res := rec.Result()
		switch {
		case res.StatusCode == http.StatusOK:
			return
		case res.StatusCode >= 400 && res.StatusCode < 500,
			res.StatusCode == http.StatusGatewayTimeout:
			// Every refusal must be the structured envelope.
			var env struct {
				Error struct {
					Code    string `json:"code"`
					Message string `json:"message"`
				} `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
				t.Fatalf("status %d with a non-envelope body: %v\n%s", res.StatusCode, err, rec.Body.String())
			}
			if env.Error.Code == "" || env.Error.Message == "" {
				t.Fatalf("status %d with an empty code/message:\n%s", res.StatusCode, rec.Body.String())
			}
		default:
			t.Fatalf("input %q produced status %d (the server must never 5xx on a bad request):\n%s",
				body, res.StatusCode, rec.Body.String())
		}
	})
}

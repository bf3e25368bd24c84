package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/live"
)

// client is one closed-loop caller on one keep-alive connection: it
// sends its next request only after the previous answer is fully read.
type client struct {
	hc  *http.Client
	url string
	buf bytes.Buffer
}

func newClient(url string) *client {
	return &client{url: url, hc: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// answer is what a client saw for one query. body aliases the client's
// buffer and is valid until its next request.
type answer struct {
	status  int
	rows    int
	fetched int64
	body    []byte
	// micros is send → NDJSON body and trailers fully drained.
	micros float64
}

// post sends one request and drains the response into the client's
// buffer; the trailers are complete once it returns.
func (c *client) post(path, ctype string, body []byte) (*http.Response, float64, error) {
	c.buf.Reset()
	start := time.Now()
	resp, err := c.hc.Post(c.url+path, ctype, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	_, err = io.Copy(&c.buf, resp.Body)
	resp.Body.Close()
	micros := float64(time.Since(start)) / 1e3
	if err != nil {
		return nil, 0, err
	}
	return resp, micros, nil
}

// query posts r to /v1/query. A transport error, a non-200 status, an
// X-Beserve-Error trailer or an unexpected row count is an error; the
// answer is returned beside it as far as it was read.
func (c *client) query(r *request) (answer, error) {
	resp, micros, err := c.post("/v1/query", "application/json", r.body)
	if err != nil {
		return answer{}, err
	}
	a := answer{status: resp.StatusCode, body: c.buf.Bytes(), micros: micros}
	if resp.StatusCode != http.StatusOK {
		return a, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(a.body))
	}
	if e := resp.Trailer.Get("X-Beserve-Error"); e != "" {
		return a, fmt.Errorf("stream cut: %s", e)
	}
	a.rows = bytes.Count(a.body, []byte{'\n'})
	if a.fetched, err = strconv.ParseInt(resp.Trailer.Get("X-Beserve-Fetched"), 10, 64); err != nil {
		return a, fmt.Errorf("X-Beserve-Fetched trailer: %w", err)
	}
	if r.wantRows >= 0 && a.rows != r.wantRows {
		return a, fmt.Errorf("%d rows, want %d", a.rows, r.wantRows)
	}
	return a, nil
}

// apply posts one delta to /v1/apply and waits for the JSON ack.
func (c *client) apply(d *live.Delta) (micros float64, err error) {
	var tsv bytes.Buffer
	if err := live.WriteDeltaTSV(&tsv, d); err != nil {
		return 0, err
	}
	resp, micros, err := c.post("/v1/apply", "text/tab-separated-values", tsv.Bytes())
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return micros, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(c.buf.Bytes()))
	}
	return micros, nil
}

// loadResult is what the clients of one window observed.
type loadResult struct {
	queryUS, applyUS []float64
	// queryAt is when each query completed, in seconds since the window
	// began; parallel to queryUS.
	queryAt           []float64
	attempted, failed int
	// fetched sums X-Beserve-Fetched over the answered queries;
	// fetchedOf keeps the last value seen per distinct request.
	fetched   int64
	fetchedOf [distinctQueries]int64
	elapsed   time.Duration
	firstErr  error
}

func (r *loadResult) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

func (r *loadResult) merge(o *loadResult) {
	r.queryUS = append(r.queryUS, o.queryUS...)
	r.queryAt = append(r.queryAt, o.queryAt...)
	r.applyUS = append(r.applyUS, o.applyUS...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.fetched += o.fetched
	for i, f := range o.fetchedOf {
		if f != 0 {
			r.fetchedOf[i] = f
		}
	}
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
}

// fetchedPerQuery is the mean X-Beserve-Fetched per query — the
// paper's own cost. Over a catalog mix it is the mean over the distinct
// requests (each weighs the same however often the window happened to
// draw it, and one the window never drew counts with the value the
// oracle saw), so it is a pure function of the seed and equal across
// topologies serving the same mix; over ad-hoc traffic it is the mean
// over the queries answered.
func (r *loadResult) fetchedPerQuery(m *mix) float64 {
	if len(m.catalog) == 0 {
		return float64(r.fetched) / float64(max(len(r.queryUS), 1))
	}
	sum := int64(0)
	for i, req := range m.distinct {
		if f := r.fetchedOf[i]; f != 0 {
			sum += f
		} else {
			sum += req.fetched
		}
	}
	return float64(sum) / float64(len(m.distinct))
}

// numClients is the closed loop's size: 2 query connections per
// workload (the box this was sized on has 2 cores).
const numClients = 2

// runLoad drives the workload's closed loop for the window: numClients
// query connections, each continuing its seeded sequence where the last
// window left it, plus the writer's connection when the workload has
// one.
func (fx *fixture) runLoad(window time.Duration) loadResult {
	var parts [numClients + 1]loadResult
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for c := 0; c < numClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient(fx.url)
			defer cl.close()
			res, seq := &parts[c], fx.mix.seqs[c]
			for time.Now().Before(deadline) {
				r := seq[fx.cursor[c]%len(seq)]
				fx.cursor[c]++
				res.attempted++
				a, err := cl.query(r)
				if err != nil {
					res.fail(err)
					continue
				}
				res.queryUS = append(res.queryUS, a.micros)
				res.queryAt = append(res.queryAt, time.Since(start).Seconds())
				res.fetched += a.fetched
				if r.id >= 0 {
					res.fetchedOf[r.id] = a.fetched
				}
			}
		}()
	}
	if fx.stream != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient(fx.url)
			defer cl.close()
			res := &parts[numClients]
			// One delta every writeEvery; an apply that outlasts the period
			// is followed by the next at once, never by two.
			for next := start; next.Before(deadline); next = next.Add(fx.spec.writeEvery) {
				if wait := time.Until(next); wait > 0 {
					time.Sleep(wait)
				} else {
					next = time.Now()
				}
				res.attempted++
				micros, err := cl.apply(fx.stream.Next())
				if err != nil {
					res.fail(err)
					continue
				}
				res.applyUS = append(res.applyUS, micros)
			}
		}()
	}
	wg.Wait()
	total := loadResult{elapsed: time.Since(start)}
	for i := range parts {
		total.merge(&parts[i])
	}
	return total
}

package main

import (
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
)

// spanHeader carries the RPC span's index from the coordinator side of
// a peer call to the node side, so the node-handler span can name its
// parent. The program passes it through untouched.
const spanHeader = "X-Bench-Span"

// countingTransport is the http.RoundTripper handed to the coordinator
// in cluster.Options.Client. While the tracer is on it records one
// "cluster.rpc" span per peer call — request sent to response body
// drained — and counts calls, failures and bytes each way; while off it
// only delegates.
type countingTransport struct {
	base http.RoundTripper
	tr   *tracer

	calls, failed, reqBytes, respBytes atomic.Int64
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !c.tr.on.Load() {
		return c.base.RoundTrip(req)
	}
	request, parent := c.tr.current()
	id := c.tr.start("cluster.rpc", parent, request)
	c.calls.Add(1)
	if req.ContentLength > 0 {
		c.reqBytes.Add(req.ContentLength)
	}
	// A RoundTripper must not modify the caller's request.
	out := req.Clone(req.Context())
	out.Header.Set(spanHeader, strconv.Itoa(id))
	resp, err := c.base.RoundTrip(out)
	if err != nil {
		c.failed.Add(1)
		c.tr.end(id)
		return nil, err
	}
	if resp.StatusCode >= 500 {
		c.failed.Add(1)
	}
	resp.Body = &countedBody{ReadCloser: resp.Body, c: c, id: id}
	return resp, nil
}

// countedBody counts response bytes and closes the RPC span when the
// caller is done with the body.
type countedBody struct {
	io.ReadCloser
	c    *countingTransport
	id   int
	done bool
}

func (b *countedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.c.respBytes.Add(int64(n))
	return n, err
}

func (b *countedBody) Close() error {
	if !b.done {
		b.done = true
		b.c.tr.end(b.id)
	}
	return b.ReadCloser.Close()
}

// tracedHandler wraps a node's internal handler: while the tracer is on
// it records the node's own time per peer call as a child of the RPC
// span the coordinator side opened.
func tracedHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !tr.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		parent, err := strconv.Atoi(r.Header.Get(spanHeader))
		if err != nil {
			parent = -1
		}
		request, _ := tr.current()
		id := tr.start("cluster.node_handle", parent, request)
		h.ServeHTTP(w, r)
		tr.end(id)
	})
}

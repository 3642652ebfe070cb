package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark traces from outside the program: it wraps the handlers the
// program returns and times the calls it makes into them. Nothing here runs
// unless the run was started with --trace 1, and then only while on is set,
// so the untraced phase of a traced run measures the bare handlers.

// traceHeader carries the benchmark's query id from the coordinator's
// front handler, through the coordinator's forwarded request, to the replica
// handler, so the two handler times of one query can be paired.
const traceHeader = "X-Perfbench-Id"

type traceIDKey struct{}

// serverTap wraps a server's Handler. While on, it asks /predict for the
// ?debug=1 stage breakdown and records the handler's wall time minus the
// latency the server itself reports (the wire: decode, validation, encode).
type serverTap struct {
	h  http.Handler
	on *atomic.Bool

	mu   sync.Mutex
	wire []float64                // µs per successful query
	byID map[string]time.Duration // handler wall time by trace id
}

func newServerTap(h http.Handler, on *atomic.Bool) *serverTap {
	return &serverTap{h: h, on: on, byID: map[string]time.Duration{}}
}

func (t *serverTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.on.Load() || r.URL.Path != "/predict" {
		t.h.ServeHTTP(w, r)
		return
	}
	q := r.URL.Query()
	q.Set("debug", "1")
	r.URL.RawQuery = q.Encode()
	cw := &captureWriter{ResponseWriter: w, status: http.StatusOK}
	start := time.Now()
	t.h.ServeHTTP(cw, r)
	wall := time.Since(start)
	if cw.status != http.StatusOK {
		return
	}
	var resp struct {
		LatencyMs float64 `json:"latency_ms"`
	}
	if json.Unmarshal(cw.body.Bytes(), &resp) != nil {
		return
	}
	// Recorded before returning: the server flushes a small reply only after
	// the handler returns, so the record exists before the caller sees it.
	t.mu.Lock()
	t.wire = append(t.wire, us(wall)-resp.LatencyMs*1e3)
	if id := r.Header.Get(traceHeader); id != "" {
		if old, ok := t.byID[id]; !ok || wall < old {
			t.byID[id] = wall // a hedged query reaches two replicas; keep the faster
		}
	}
	t.mu.Unlock()
}

// handlerTime returns the wall time this replica's handler spent on the
// query with the given trace id.
func (t *serverTap) handlerTime(id string) (time.Duration, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	d, ok := t.byID[id]
	return d, ok
}

func (t *serverTap) wireSamples() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.wire...)
}

// captureWriter copies the response body and status a handler writes.
type captureWriter struct {
	http.ResponseWriter
	status int
	body   bytes.Buffer
}

func (c *captureWriter) WriteHeader(code int) {
	c.status = code
	c.ResponseWriter.WriteHeader(code)
}

func (c *captureWriter) Write(p []byte) (int, error) {
	c.body.Write(p)
	return c.ResponseWriter.Write(p)
}

// coordTap wraps the coordinator's Handler. While on, it tags each query
// with an id that idTransport forwards to the replicas, and records the
// coordinator handler's wall time minus the replica handler's wall time for
// the same query: the fleet's own overhead (routing, the extra JSON hops,
// connection handling).
type coordTap struct {
	h        http.Handler
	on       *atomic.Bool
	replicas []*serverTap
	seq      atomic.Int64

	mu       sync.Mutex
	overhead []float64 // µs per query answered by a traced replica
}

func (t *coordTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.on.Load() || r.URL.Path != "/predict" {
		t.h.ServeHTTP(w, r)
		return
	}
	id := strconv.FormatInt(t.seq.Add(1), 10)
	r = r.WithContext(context.WithValue(r.Context(), traceIDKey{}, id))
	start := time.Now()
	t.h.ServeHTTP(w, r)
	wall := time.Since(start)
	for _, rt := range t.replicas {
		if d, ok := rt.handlerTime(id); ok {
			t.mu.Lock()
			t.overhead = append(t.overhead, us(wall-d))
			t.mu.Unlock()
			return
		}
	}
}

func (t *coordTap) samples() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.overhead...)
}

// idTransport copies the trace id from a forwarded request's context into
// its headers and otherwise leaves the round trip to inner.
type idTransport struct{ inner http.RoundTripper }

func (t idTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if id, ok := req.Context().Value(traceIDKey{}).(string); ok {
		req = req.Clone(req.Context())
		req.Header.Set(traceHeader, id)
	}
	return t.inner.RoundTrip(req)
}

// countingListener counts accepted TCP connections.
type countingListener struct {
	net.Listener
	accepts atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}

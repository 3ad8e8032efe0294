package main

// Spans for the traced run. The benchmark records them from its own code:
// one client span per request (send to full body read) and one server span
// per request around the program's handler, joined by a request ID the
// client sends in a header. Spans inside the program are a later change.

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

const traceHeader = "X-Perfbench-Request"

// span is one timed interval. Server spans are children of the client span
// with the same request ID.
type span struct {
	name       string
	start, end time.Time
	req        uint64
}

// tracer collects server spans in memory while on.
type tracer struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

// wrap returns h unchanged on an untraced run (nil tracer), and otherwise
// h inside a span recorder that records while the tracer is on.
func (t *tracer) wrap(name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		id, err := strconv.ParseUint(r.Header.Get(traceHeader), 10, 64)
		if err != nil {
			return // a request the benchmark did not send
		}
		t.mu.Lock()
		t.spans = append(t.spans, span{name: name, start: start, end: end, req: id})
		t.mu.Unlock()
	})
}

// transportTimes pairs each client span with its server span and returns
// the client-side time outside the handler (loopback, HTTP framing, the
// client library), and the server span durations.
func transportTimes(client []span, server []span) (transport, handler []time.Duration) {
	byReq := make(map[uint64]span, len(server))
	for _, s := range server {
		byReq[s.req] = s
	}
	for _, c := range client {
		s, ok := byReq[c.req]
		if !ok {
			continue
		}
		d := s.end.Sub(s.start)
		handler = append(handler, d)
		transport = append(transport, c.end.Sub(c.start)-d)
	}
	return transport, handler
}

// writeSpans writes every span of the run, one per line, under
// .bench_build in the working directory: name, request ID, parent ("-"
// for client spans, whose parent is the run), start and end in ns since
// the first span.
func writeSpans(path string, client, server []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	var t0 time.Time
	if len(client) > 0 {
		t0 = client[0].start
	}
	fmt.Fprintln(w, "name\treq\tparent\tstart_ns\tend_ns")
	for _, s := range client {
		fmt.Fprintf(w, "%s\t%d\t-\t%d\t%d\n", s.name, s.req, s.start.Sub(t0).Nanoseconds(), s.end.Sub(t0).Nanoseconds())
	}
	for _, s := range server {
		fmt.Fprintf(w, "%s\t%d\tclient:%d\t%d\t%d\n", s.name, s.req, s.req, s.start.Sub(t0).Nanoseconds(), s.end.Sub(t0).Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the write already failed; report that error
		return err
	}
	return f.Close()
}

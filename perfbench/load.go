package main

// The load generator: at most nproc client goroutines, each with its own
// keep-alive connection per server, driving pre-encoded request bodies in
// a closed loop (next request after the last response) or an open loop
// (requests due on a fixed schedule, timed from when they were due).
//
// Nothing is checked while a phase runs: each response body is hashed, the
// first body of each distinct (instance, hash) pair is copied into the
// client's arena, and the workload checks those after the phase.

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// request is one operation: where to send which body, and the input
// instance it encodes (the key the checker needs).
type request struct {
	url  string
	body []byte
	inst int
}

// stored is one distinct response body kept for checking.
type stored struct {
	inst int
	body []byte
}

// client is one load-generating goroutine's state.
type client struct {
	id        int
	transport *http.Transport
	hc        *http.Client
	buf       bytes.Buffer
	arena     []byte // kept bodies, in the off-heap mapping arenaMem
	arenaMem  []byte
	seen      map[uint64]struct{}
	bodies    []stored
	lat       []time.Duration // per-operation latency in the current phase
	late      []time.Duration // open loop: send time minus due time
	spans     []span          // traced runs: one client span per operation
	ok, fail  int
	failMsg   string
	tracing   bool
	reqID     uint64
	hashSeed  maphash.Seed
}

// newClients builds n clients. arenaBytes bounds the bodies each keeps;
// the arenas are mapped here, before the program is built, outside the
// Go heap.
func newClients(n, arenaBytes, maxOps int) []*client {
	seed := maphash.MakeSeed()
	cs := make([]*client, n)
	for i := range cs {
		tr := &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
			DialContext:         (&net.Dialer{Timeout: 2 * time.Second}).DialContext,
		}
		mem := offHeap(arenaBytes)
		cs[i] = &client{
			id:        i,
			transport: tr,
			hc:        &http.Client{Transport: tr, Timeout: 30 * time.Second},
			arena:     mem[:0],
			arenaMem:  mem,
			seen:      make(map[uint64]struct{}, 1024),
			lat:       make([]time.Duration, 0, maxOps),
			late:      make([]time.Duration, 0, maxOps),
			hashSeed:  seed,
		}
	}
	return cs
}

// close drops every idle keep-alive connection the client holds and
// unmaps its arena.
func (c *client) close() {
	c.transport.CloseIdleConnections()
	freeOffHeap(c.arenaMem)
	c.arena, c.arenaMem = nil, nil
}

// reset clears the per-phase records.
func (c *client) reset() {
	c.lat = c.lat[:0]
	c.late = c.late[:0]
	c.ok, c.fail = 0, 0
}

// do sends one request and records it. due is when the request was meant
// to go out (the send time in a closed loop).
func (c *client) do(r request, due time.Time) {
	start := time.Now()
	req, err := http.NewRequest(http.MethodPost, r.url, bytes.NewReader(r.body))
	if err != nil {
		c.failed(fmt.Sprintf("building request: %v", err))
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if c.tracing {
		c.reqID++
		req.Header.Set(traceHeader, strconv.FormatUint(uint64(c.id)<<40|c.reqID, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.failed(fmt.Sprintf("POST %s: %v", r.url, err))
		return
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	_ = resp.Body.Close() // the body is fully read; nothing is left to release
	end := time.Now()
	if err != nil {
		c.failed(fmt.Sprintf("reading response: %v", err))
		return
	}
	if resp.StatusCode != http.StatusOK {
		c.failed(fmt.Sprintf("POST %s: status %d: %.200s", r.url, resp.StatusCode, c.buf.Bytes()))
		return
	}
	c.ok++
	c.lat = append(c.lat, end.Sub(due))
	c.late = append(c.late, start.Sub(due))
	if c.tracing {
		c.spans = append(c.spans, span{name: "client", start: start, end: end, req: uint64(c.id)<<40 | c.reqID})
	}
	b := c.buf.Bytes()
	h := maphash.Bytes(c.hashSeed, b) ^ uint64(r.inst)*0x9e3779b97f4a7c15
	if _, dup := c.seen[h]; dup {
		return
	}
	c.seen[h] = struct{}{}
	if len(c.arena)+len(b) > cap(c.arena) {
		c.failed("response arena full: the workload keeps more distinct bodies than it was sized for")
		return
	}
	off := len(c.arena)
	c.arena = append(c.arena, b...)
	c.bodies = append(c.bodies, stored{inst: r.inst, body: c.arena[off:len(c.arena):len(c.arena)]})
}

func (c *client) failed(msg string) {
	c.fail++
	if c.failMsg == "" {
		c.failMsg = msg
	}
}

// source yields the next request for a client; ok is false when the
// workload's inputs are exhausted, which fails the run.
type source func(client int) (request, bool)

// phaseResult is one phase's outcome across all clients.
type phaseResult struct {
	elapsed time.Duration
	ok      int
	fail    int
	failMsg string
	lat     []time.Duration
	late    []time.Duration
	rt      runtimeDelta // process CPU, allocations and GC over the load
}

// closedLoop runs every client back to back for d. A source that runs
// dry (a workload whose inputs are never reused, sized too small for the
// program's speed) fails the phase rather than leave it short.
func closedLoop(cs []*client, next source, d time.Duration) (phaseResult, error) {
	var wg sync.WaitGroup
	var exhausted atomic.Bool
	start := time.Now()
	stop := start.Add(d)
	for _, c := range cs {
		c.reset()
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for time.Now().Before(stop) {
				r, ok := next(c.id)
				if !ok {
					exhausted.Store(true)
					return
				}
				c.do(r, time.Now())
			}
		}(c)
	}
	wg.Wait()
	res := collect(cs, time.Since(start))
	if exhausted.Load() {
		return res, fmt.Errorf("closed loop ran out of inputs: size the input pool for a faster program")
	}
	return res, nil
}

// openLoop sends requests due every 1/rate seconds for d. Client c takes
// the slots c, c+len(cs), ...; a request that finds its client still busy
// goes out late, and its latency still counts from when it was due.
func openLoop(cs []*client, next source, rate float64, d time.Duration) (phaseResult, error) {
	var wg sync.WaitGroup
	var exhausted atomic.Bool
	interval := time.Duration(float64(time.Second) / rate)
	slots := int(d / interval)
	start := time.Now().Add(time.Millisecond)
	for _, c := range cs {
		c.reset()
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for k := c.id; k < slots; k += len(cs) {
				due := start.Add(time.Duration(k) * interval)
				waitUntil(due)
				r, ok := next(c.id)
				if !ok {
					exhausted.Store(true)
					return
				}
				c.do(r, due)
			}
		}(c)
	}
	wg.Wait()
	res := collect(cs, time.Since(start))
	if exhausted.Load() {
		return res, fmt.Errorf("open loop ran out of inputs: size the input pool for a faster program")
	}
	return res, nil
}

// waitUntil sleeps until due in a nanosleep system call. The runtime's
// own timers wake a sleeping goroutine up to a millisecond late when the
// process is otherwise idle, which would make the open loop measure the
// generator; a kernel sleep is precise to tens of microseconds, and the
// runtime hands the processor to other goroutines while it lasts.
func waitUntil(due time.Time) {
	if d := time.Until(due); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep only sends early; lateness is measured
	}
}

func collect(cs []*client, elapsed time.Duration) phaseResult {
	res := phaseResult{elapsed: elapsed}
	for _, c := range cs {
		res.ok += c.ok
		res.fail += c.fail
		if res.failMsg == "" {
			res.failMsg = c.failMsg
		}
		res.lat = append(res.lat, c.lat...)
		res.late = append(res.late, c.late...)
	}
	return res
}

// drainBodies hands every kept body to the checker and forgets them.
func drainBodies(cs []*client) []stored {
	var out []stored
	for _, c := range cs {
		out = append(out, c.bodies...)
		c.bodies = c.bodies[:0]
		c.arena = c.arena[:0]
		clear(c.seen)
	}
	return out
}

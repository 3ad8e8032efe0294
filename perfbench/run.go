package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	// setupRepeats: setup_s is the median of this many complete builds
	// of the program (each torn down again but the last).
	setupRepeats = 101
	// closedShare of --seconds goes to the closed loop, the rest to the
	// open loop. A traced run splits --seconds in three: an untraced
	// reference closed loop, a traced closed loop, a traced open loop.
	closedShare  = 0.5
	warmupClosed = 500 * time.Millisecond
	warmupOpen   = 300 * time.Millisecond
	// opsPerSecond sizes the per-client latency records up front, so
	// appending to them does not allocate inside a phase.
	opsPerSecond = 20000
	// phaseSlack is how long a step may overrun before the watchdog
	// fails the run.
	phaseSlack = 60 * time.Second
)

// runOnce runs one workload: build the program setupRepeats times, drive
// it, check every answer, tear it down, and return the result line. A
// non-nil result with a nil error may still be incorrect or hold failed
// operations.
func runOnce(name string, seed int64, seconds float64, trace bool) (*resultLine, error) {
	b, err := newBench(name)
	if err != nil {
		return nil, err
	}
	nclients := runtime.NumCPU()
	refD, closedD, openD := time.Duration(0), secs(seconds*closedShare), secs(seconds*(1-closedShare))
	if trace {
		refD, closedD, openD = secs(seconds/3), secs(seconds/3), secs(seconds/3)
	}
	total := (refD + closedD + openD + 2*warmupClosed + warmupOpen).Seconds()

	// Inputs and oracle data: not part of setup_s, and held before the
	// heap baseline is taken.
	if err := b.generate(seed, nclients); err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	if cb, ok := b.(*coldBench); ok {
		cb.sizePool(refD+closedD+warmupClosed, openD+warmupOpen)
		defer cb.release()
	}
	clients := newClients(nclients, b.arenaBytes(total), int(opsPerSecond*total)/nclients)
	var tr *tracer
	if trace {
		tr = &tracer{spans: make([]span, 0, int(opsPerSecond*seconds))}
	}
	runtime.GC()
	heap := startHeapPeak()
	goroutines := runtime.NumGoroutine()

	w := &runner{name: name, b: b, clients: clients, heap: heap, res: &resultLine{Correct: true, Metrics: map[string]metricOut{}}}
	var setups []time.Duration
	for k := 0; k < setupRepeats; k++ {
		var d time.Duration
		err := w.step("setup", func() error {
			t := time.Now()
			err := b.setup(tr)
			d = time.Since(t)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d)
		if k < setupRepeats-1 {
			if err := w.step("teardown", b.teardown); err != nil {
				return nil, err
			}
			if err := settle(goroutines); err != nil {
				return nil, fmt.Errorf("after setup %d: %w", k, err)
			}
			// The torn-down program is garbage; collect it so that it
			// neither inflates the heap peak nor charges the next build.
			runtime.GC()
		}
	}

	var closed, open []phaseResult
	var ref, openWarm phaseResult
	var before, after counters
	closedLoopFor := func(d time.Duration) (phaseResult, error) { return closedLoop(clients[:b.closedClients()], b.next, d) }
	openLoopFor := func(d time.Duration) (phaseResult, error) { return openLoop(clients, b.next, b.openRate(), d) }
	err = func() error {
		if _, err := w.phase("closed warm-up", warmupClosed, closedLoopFor); err != nil {
			return err
		}
		if trace {
			if ref, err = w.phase("reference closed loop", refD, closedLoopFor); err != nil {
				return err
			}
			tr.on.Store(true)
			for _, c := range clients {
				c.tracing = true
			}
		}
		before = b.counters()
		if closed, err = w.windows("closed loop", closedD, closedLoopFor); err != nil {
			return err
		}
		b.beginOpen()
		if openWarm, err = w.phase("open warm-up", warmupOpen, openLoopFor); err != nil {
			return err
		}
		if open, err = w.windows("open loop", openD, openLoopFor); err != nil {
			return err
		}
		after = b.counters()
		if tr != nil {
			tr.on.Store(false)
		}
		return nil
	}()
	if err != nil {
		w.res.Correct = false
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}

	var probes layers
	if trace && err == nil {
		probes = layers{}
		heap.pause()
		err = w.step("layer probes", func() error {
			for _, probe := range []func(int64, layers) error{probeWarm, probeCold, probeExec, probeFleet} {
				if err := probe(seed, probes); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			w.res.Correct = false
		}
	}

	// Teardown is a checked step: every listener must refuse connections
	// and every goroutine the run started must be gone.
	if terr := w.step("teardown", b.teardown); terr != nil && err == nil {
		err = terr
	}
	for _, c := range clients {
		c.close()
	}
	if serr := settle(goroutines); serr != nil && err == nil {
		err = serr
	}
	peakMB := heap.stop()
	if err != nil {
		return w.res, err
	}

	fmt.Printf("setup: %d builds, median %.4fs, each %v\n", len(setups), median(setups).Seconds(), setups)
	all := merge(closed)
	report("closed", all)
	for _, p := range closed {
		sortDurations(p.lat)
		fmt.Printf("  window: ok/s=%.0f p50=%.1fus p90=%.1fus cpu/req=%.1fus\n", float64(p.ok)/p.elapsed.Seconds(), us(percentile(p.lat, 0.5)), us(percentile(p.lat, 0.9)), us(p.rt.cpu)/float64(p.ok))
	}
	report("open", merge(open))
	for _, p := range open {
		sortDurations(p.lat)
		fmt.Printf("  window: p50=%.1fus p90=%.1fus\n", us(percentile(p.lat, 0.5)), us(percentile(p.lat, 0.9)))
	}
	if !trace {
		// Closed-loop metrics are the median over the phase's one-second
		// windows, so a disturbance shorter than half the phase does not
		// move them; open-loop percentiles come from the least-disturbed
		// windows (see lowTenthOf).
		w.metric("setup_s", median(setups).Seconds())
		w.metric("ok_per_s", medianOf(closed, func(p phaseResult) float64 { return float64(p.ok) / p.elapsed.Seconds() }))
		w.metric("p50_us", medianOf(closed, func(p phaseResult) float64 { return us(percentile(p.lat, 0.5)) }))
		w.metric("p90_us", medianOf(closed, func(p phaseResult) float64 { return us(percentile(p.lat, 0.9)) }))
		w.metric("open_p50_us", lowTenthOf(open, func(p phaseResult) float64 { return us(percentile(p.lat, 0.5)) }))
		w.metric("open_p90_us", lowTenthOf(open, func(p phaseResult) float64 { return us(percentile(p.lat, 0.9)) }))
		w.metric("cpu_us_per_req", medianOf(closed, func(p phaseResult) float64 { return us(p.rt.cpu) / float64(p.ok) }))
		w.metric("allocs_per_req", medianOf(closed, func(p phaseResult) float64 { return float64(p.rt.allocs) / float64(p.ok) }))
		w.metric("heap_peak_mb", peakMB)
		return w.res, nil
	}
	tracedOps := all.ok + openWarm.ok + merge(open).ok
	return w.res, w.traced(seed, tr, ref, all, merge(open), tracedOps, after.minus(before), probes)
}

// windows runs a phase of length d as back-to-back windows of about one
// second each, then checks the whole phase at once: a check, and the
// collection after it, pause the load, and with one every second
// cold-optimize's open-loop p90 spread from run to run twice as wide.
func (w *runner) windows(what string, d time.Duration, f func(time.Duration) (phaseResult, error)) ([]phaseResult, error) {
	n := max(1, int(d.Round(time.Second)/time.Second))
	out := make([]phaseResult, 0, n)
	c0 := w.b.counters()
	ok := 0
	for i := 0; i < n; i++ {
		res, err := w.load(fmt.Sprintf("%s window %d", what, i), d/time.Duration(n), f)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
		ok += res.ok
	}
	return out, w.verify(what, c0, ok)
}

// merge pools the windows of a phase: operations, latencies and runtime
// work add up.
func merge(ws []phaseResult) phaseResult {
	var m phaseResult
	for _, p := range ws {
		m.elapsed += p.elapsed
		m.ok += p.ok
		m.fail += p.fail
		m.lat = append(m.lat, p.lat...)
		m.late = append(m.late, p.late...)
		m.rt = m.rt.plus(p.rt)
	}
	return m
}

// perWindow returns f of each window, sorted, each window's latencies
// sorted first.
func perWindow(ws []phaseResult, f func(phaseResult) float64) []float64 {
	v := make([]float64, len(ws))
	for i, p := range ws {
		sortDurations(p.lat)
		v[i] = f(p)
	}
	sort.Float64s(v)
	return v
}

// medianOf is the median over windows of f.
func medianOf(ws []phaseResult, f func(phaseResult) float64) float64 {
	v := perWindow(ws, f)
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}

// lowTenthOf is the tenth percentile of f over the windows. The open
// loop's percentiles use it: the host takes a vCPU away in bursts of
// milliseconds, and at a few hundred requests a window a burst sets the
// p90 of any window it falls in, so the median window's p90 measured the
// host. Over two sets of ten 45-second runs per workload, the open p90's
// spread was 0.23-2.2 of its median over the median window, 0.15-0.40
// over the mean of the lowest quarter of the windows, and 0.14-0.32 over
// the tenth percentile. A regression the program
// carries into every window still moves it.
func lowTenthOf(ws []phaseResult, f func(phaseResult) float64) float64 {
	v := perWindow(ws, f)
	return v[len(v)/10]
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// runner carries one run's accounting.
type runner struct {
	name    string
	b       bench
	clients []*client
	heap    *heapPeak
	res     *resultLine
}

// step runs f under a watchdog: a step that overruns exits the process,
// naming the workload and step, since a hung call (a fleet forward has no
// deadline) would otherwise hang the benchmark.
func (w *runner) step(what string, f func() error) error {
	t := time.AfterFunc(phaseSlack, func() {
		fmt.Fprintf(os.Stderr, "perfbench: watchdog: workload %s stuck in %s for %v\n", w.name, what, phaseSlack)
		os.Exit(3)
	})
	defer t.Stop()
	return f()
}

// phase runs one load phase under the watchdog and checks it.
func (w *runner) phase(what string, d time.Duration, f func(time.Duration) (phaseResult, error)) (phaseResult, error) {
	c0 := w.b.counters()
	res, err := w.load(what, d, f)
	if err != nil {
		return res, err
	}
	return res, w.verify(what, c0, res.ok)
}

// load runs f for d under the watchdog and counts its operations.
func (w *runner) load(what string, d time.Duration, f func(time.Duration) (phaseResult, error)) (phaseResult, error) {
	var res phaseResult
	err := w.step(what, func() error {
		rt0 := readRuntime()
		var err error
		res, err = f(d)
		res.rt = readRuntime().minus(rt0)
		return err
	})
	w.res.Attempted += res.ok + res.fail
	w.res.Failed += res.fail
	if err != nil {
		return res, fmt.Errorf("%s: %w", what, err)
	}
	if res.fail > 0 {
		return res, fmt.Errorf("%s: %d of %d operations failed, first: %s", what, res.fail, res.ok+res.fail, res.failMsg)
	}
	return res, nil
}

// verify checks every distinct answer kept since the last check, and the
// workload's invariants on the growth of the program's counters since c0
// over ok operations.
func (w *runner) verify(what string, c0 counters, ok int) error {
	// The checks allocate: their heap is the benchmark's, not the
	// program's, so the peak sampler pauses and the garbage is collected
	// before the program runs again.
	w.heap.pause()
	err := w.step(what+" check", func() error { return w.b.check(drainBodies(w.clients)) })
	runtime.GC()
	w.heap.resume()
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	c := w.b.counters().minus(c0)
	searches, forwarded := c.planner.Searches, c.forwarded
	switch w.name {
	case "cold-optimize":
		if searches != int64(ok) {
			return fmt.Errorf("%s: %d searches for %d never-seen instances", what, searches, ok)
		}
	default:
		if searches != 0 {
			return fmt.Errorf("%s: %d searches on a primed workload, want 0", what, searches)
		}
	}
	if w.name == "fleet-forward" && (forwarded != int64(ok) || c.fwdFailed != 0) {
		return fmt.Errorf("%s: %d forwards (%d failed) for %d requests, want exactly one each", what, forwarded, c.fwdFailed, ok)
	}
	return nil
}

func (w *runner) metric(name string, v float64) {
	for _, m := range append(endToEnd, perLayer...) {
		if m.name == name {
			w.res.Metrics[name] = metricOut{Value: v, Unit: m.unit}
			return
		}
	}
	panic("undeclared metric " + name)
}

func report(what string, p phaseResult) {
	lat := append([]time.Duration(nil), p.lat...)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	fmt.Printf("%s: samples=%d ok=%d failed=%d elapsed=%.3fs p50=%.1fus p90=%.1fus p99=%.1fus\n",
		what, len(lat), p.ok, p.fail, p.elapsed.Seconds(),
		us(percentile(lat, 0.5)), us(percentile(lat, 0.9)), us(percentile(lat, 0.99)))
}

// settle waits for the goroutine count to fall back to the level before
// the program was built.
func settle(want int) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want {
			return nil
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			return fmt.Errorf("%d goroutines still running after teardown, %d before setup:\n%s", n, want, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// runtimeDelta is process CPU time, heap allocations and GC work over a
// phase.
type runtimeDelta struct {
	cpu       time.Duration
	allocs    uint64
	gcs       uint32
	pauseNano uint64
}

func readRuntime() runtimeDelta {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeDelta{
		cpu:       time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs:    heapAllocs(),
		gcs:       ms.NumGC,
		pauseNano: ms.PauseTotalNs,
	}
}

func (a runtimeDelta) plus(b runtimeDelta) runtimeDelta {
	return runtimeDelta{cpu: a.cpu + b.cpu, allocs: a.allocs + b.allocs, gcs: a.gcs + b.gcs, pauseNano: a.pauseNano + b.pauseNano}
}

func (a runtimeDelta) minus(b runtimeDelta) runtimeDelta {
	return runtimeDelta{cpu: a.cpu - b.cpu, allocs: a.allocs - b.allocs, gcs: a.gcs - b.gcs, pauseNano: a.pauseNano - b.pauseNano}
}

// heapPeak samples the bytes of live and not yet collected heap objects
// every few milliseconds and keeps the largest, relative to the level at
// start (the benchmark's own inputs).
type heapPeak struct {
	base   uint64
	peak   atomic.Uint64
	paused atomic.Bool
	quit   chan struct{}
	done   chan struct{}
}

func (h *heapPeak) pause()  { h.paused.Store(true) }
func (h *heapPeak) resume() { h.paused.Store(false) }

func heapBytes() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{base: heapBytes(), quit: make(chan struct{}), done: make(chan struct{})}
	h.peak.Store(h.base)
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.quit:
				return
			case <-t.C:
				if v := heapBytes(); !h.paused.Load() && v > h.peak.Load() {
					h.peak.Store(v)
				}
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak above the base in MB.
func (h *heapPeak) stop() float64 {
	close(h.quit)
	<-h.done
	return float64(h.peak.Load()-h.base) / (1 << 20)
}

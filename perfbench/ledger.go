package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"
)

// traced fills the per-layer metrics of a traced run and prints its
// end-to-end numbers against the untraced reference loop, the span
// summary, and the ledger splitting the traced p50.
func (w *runner) traced(seed int64, tr *tracer, ref, closed, open phaseResult, ops int, d counters, probes layers) error {
	rt := closed.rt
	sortLat := func(p phaseResult) []time.Duration {
		s := append([]time.Duration(nil), p.lat...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		return s
	}
	refLat, lat := sortLat(ref), sortLat(closed)
	refP50, p50 := us(percentile(refLat, 0.5)), us(percentile(lat, 0.5))
	report("reference (untraced) closed", ref)
	fmt.Printf("tracing overhead: p50 %.1fus traced vs %.1fus untraced (%+.1fus, %+.1f%%); ok/s %.0f vs %.0f\n",
		p50, refP50, p50-refP50, 100*(p50-refP50)/refP50,
		float64(closed.ok)/closed.elapsed.Seconds(), float64(ref.ok)/ref.elapsed.Seconds())

	var clientSpans []span
	for _, c := range w.clients {
		clientSpans = append(clientSpans, c.spans...)
		c.spans = nil
		c.tracing = false
	}
	transport, handler := transportTimes(clientSpans, tr.spans)
	path := filepath.Join(".bench_build", fmt.Sprintf("perfbench-spans-%s-%d.tsv", w.name, seed))
	if err := writeSpans(path, clientSpans, tr.spans); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("spans: %d client, %d server, written to %s; median client-minus-handler %.1fus, median handler %.1fus\n",
		len(clientSpans), len(tr.spans), path, us(median(transport)), us(median(handler)))

	for _, m := range perLayer {
		if v, ok := probes[m.name]; ok {
			w.metric(m.name, v)
		}
	}
	per := func(n int64) float64 { return float64(n) / float64(ops) }
	hitRatio := 0.0
	if lookups := d.planner.Hits + d.planner.Misses; lookups > 0 {
		hitRatio = float64(d.planner.Hits) / float64(lookups)
	}
	queued := 0.0
	if d.admitted > 0 {
		queued = float64(d.queued) / float64(d.admitted)
	}
	pause := 0.0
	if rt.gcs > 0 {
		pause = float64(rt.pauseNano) / 1e3 / float64(rt.gcs)
	}
	late := append([]time.Duration(nil), open.late...)
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	w.metric("planner.hit_ratio", hitRatio)
	w.metric("planner.searches_per_req", per(d.planner.Searches))
	w.metric("planner.memo_hits_per_req", per(d.planner.MemoHits))
	w.metric("planner.shared_waits", float64(d.planner.SharedWaits))
	w.metric("planner.evictions_per_req", per(d.planner.Evictions))
	w.metric("admit.queued_per_req", queued)
	w.metric("http.transport_us", us(median(transport)))
	w.metric("runtime.gc_per_kreq", 1000*float64(rt.gcs)/float64(closed.ok))
	w.metric("runtime.gc_pause_us", pause)
	w.metric("loadgen.late_p90_us", us(percentile(late, 0.9)))
	for _, m := range perLayer {
		if _, ok := w.res.Metrics[m.name]; !ok {
			return fmt.Errorf("per-layer metric %s was not measured", m.name)
		}
	}

	// The ledger: the traced closed-loop p50 split across the layers on
	// the blocking path, from the spans (transport, handler) and the
	// direct-call probes (everything inside the handler).
	L := w.res.Metrics
	planner := L["planner.optimize_warm_us"].Value + L["planner.classify_us"].Value
	admitUS := L["admit.acquire_release_ns"].Value / 1e3
	tp := us(median(transport))
	switch w.name {
	case "warm-optimize":
		ledger(p50, []entry{
			{"http transport (client span - handler span)", tp},
			{"serve self (handler - planner - admit)", L["serve.self_us"].Value},
			{"admit acquire+release", admitUS},
			{"planner classify + warm optimize", planner},
		})
	case "fleet-forward":
		owner := probes["fleet.owner_handler_us"]
		ledger(p50, []entry{
			{"http transport to the forwarding peer", tp},
			{"forwarding peer self (handler span - forward call)", us(median(handler)) - L["fleet.forward_us"].Value},
			{"choreo hop (forward call - owner handler)", L["choreo.hop_us"].Value},
			{"owner serve self (owner handler - planner - admit)", owner - planner - admitUS},
			{"admit acquire+release (owner)", admitUS},
			{"planner classify + warm optimize (owner)", planner},
		})
	default:
		ledger(p50, []entry{
			{"http transport (client span - handler span)", tp},
			{"handler span", us(median(handler))},
		})
	}
	return nil
}

type entry struct {
	name string
	us   float64
}

func ledger(p50 float64, es []entry) {
	fmt.Printf("ledger of the traced closed-loop p50 = %.1fus\n", p50)
	sum := 0.0
	for _, e := range es {
		fmt.Printf("  %-55s %9.1fus %6.1f%%\n", e.name, e.us, 100*e.us/p50)
		sum += e.us
	}
	fmt.Printf("  %-55s %9.1fus %6.1f%%\n", "residual (unaccounted)", p50-sum, 100*(p50-sum)/p50)
}

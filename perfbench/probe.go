package main

// Layer probes for the traced run: direct calls into each module's public
// functions, timed one call at a time, on the inputs of the workload the
// layer matters to. Every traced run probes every layer from the same
// seed, so the ledger is complete whichever workload is traced.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"serviceordering/internal/admit"
	"serviceordering/internal/ccache"
	"serviceordering/internal/core"
	"serviceordering/internal/exec"
	"serviceordering/internal/htier"
	"serviceordering/internal/model"
	"serviceordering/internal/planner"
	"serviceordering/internal/serve"
)

const (
	probeRounds = 40 // rounds over the 12-instance corpus
	// probeRepeats: rounds over the search and heuristic-tier probe
	// instances, so that each median sees every instance several times.
	probeRepeats = 4
)

// layers holds per-layer values by metric name.
type layers map[string]float64

// timeEach calls f n times and returns the median call time and the mean
// heap allocations per call. It collects first, so that a collection
// owed to the load phase before it does not land in the timed calls.
func timeEach(n int, f func(i int)) (med time.Duration, allocs float64) {
	d := make([]time.Duration, n)
	runtime.GC()
	a0 := heapAllocs()
	for i := 0; i < n; i++ {
		t := time.Now()
		f(i)
		d[i] = time.Since(t)
	}
	return median(d), float64(heapAllocs()-a0) / float64(n)
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// queryBytes extracts the raw query from an instance body.
func queryBytes(body []byte) []byte {
	var env struct {
		Query json.RawMessage `json:"query"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		panic(err) // the benchmark encoded the body itself
	}
	return env.Query
}

// probeWarm times the warm /v1/optimize path layer by layer on a primed
// single-node program.
func probeWarm(seed int64, out layers) error {
	in := newCorpus(seed, 1)
	p := planner.New(planner.Config{})
	ctrl := neverShed(1)
	h := serve.NewHandler(p, serve.Options{Admission: ctrl})
	for _, b := range in.bodies {
		if err := prime(h, "/v1/optimize", b); err != nil {
			return err
		}
	}
	n := probeRounds * corpusSize
	reqs := make([]*http.Request, n)
	for i := range reqs {
		r, err := http.NewRequest(http.MethodPost, "/v1/optimize", bytes.NewReader(in.bodies[i%corpusSize]))
		if err != nil {
			return err
		}
		reqs[i] = r
	}
	w := newSink()
	var bad int
	handler, handlerAllocs := timeEach(n, func(i int) {
		w.reset()
		h.ServeHTTP(w, reqs[i])
		if w.status != http.StatusOK {
			bad++
		}
	})
	if bad > 0 {
		return fmt.Errorf("warm probe: %d handler calls failed", bad)
	}
	ctx := context.Background()
	q := func(i int) *model.Query { return in.queries[i%corpusSize] }
	opt, optAllocs := timeEach(n, func(i int) {
		if res, err := p.Optimize(ctx, q(i)); err != nil || !res.Cached {
			bad++
		}
	})
	if bad > 0 {
		return fmt.Errorf("warm probe: %d planner calls were not cache hits", bad)
	}
	classify, _ := timeEach(n, func(i int) { p.Classify(q(i)) })
	signature, _ := timeEach(n, func(i int) { p.SignatureFor(q(i)) })
	acq, _ := timeEach(n, func(int) {
		t, err := ctrl.Acquire(ctx, admit.Warm, "")
		if err != nil {
			bad++
			return
		}
		t.Release()
	})
	if bad > 0 {
		return fmt.Errorf("warm probe: admission refused an idle request")
	}
	raw := make([][]byte, corpusSize)
	for i := range raw {
		raw[i] = queryBytes(in.bodies[i])
	}
	var sink uint64
	fnv, _ := timeEach(n, func(i int) { sink += ccache.FNV64(raw[i%corpusSize]) })
	_ = sink

	out["serve.handler_us"] = us(handler)
	out["serve.handler_allocs"] = handlerAllocs
	out["planner.optimize_warm_us"] = us(opt)
	out["planner.optimize_warm_allocs"] = optAllocs
	out["planner.classify_us"] = us(classify)
	out["planner.signature_us"] = us(signature)
	out["admit.acquire_release_ns"] = float64(acq)
	out["ccache.fnv64_ns"] = float64(fnv)
	out["serve.self_us"] = us(handler - opt - classify - acq)
	return nil
}

// probeCold times decode, validation, exact search and the heuristic tier
// on never-seen instances of the cold-optimize shapes.
func probeCold(seed int64, out layers) error {
	c := &coldBench{seed: seed ^ 0x5bd1e995}
	var exact, large []*model.Query
	for i := 0; len(exact) < 24 || len(large) < 5; i++ {
		q := c.query(i)
		if q.N() >= 16 {
			if len(large) < 5 {
				large = append(large, q)
			}
		} else if len(exact) < 24 {
			exact = append(exact, q)
		}
	}
	raw := make([][]byte, len(exact))
	for i, q := range exact {
		raw[i] = queryBytes(optimizeBody(q))
	}
	var bad error
	decode, _ := timeEach(4*len(exact), func(i int) {
		var q model.Query
		if err := json.Unmarshal(raw[i%len(exact)], &q); err != nil {
			bad = err
		}
	})
	validate, _ := timeEach(4*len(exact), func(i int) {
		if err := exact[i%len(exact)].Validate(); err != nil {
			bad = err
		}
	})
	var nodes, prunes int64
	results := make([]core.Result, len(exact))
	search, _ := timeEach(probeRepeats*len(exact), func(i int) {
		res, err := core.OptimizeWithOptions(exact[i%len(exact)], core.Options{})
		if err != nil {
			bad = err
			return
		}
		if i < len(exact) {
			nodes += res.Stats.NodesExpanded
			prunes += res.Stats.DominancePrunes
			results[i] = res
		}
	})
	for i, res := range results {
		if q := exact[i]; bad == nil && (evalCost(q, res.Plan) != res.Cost || feasibleAtMost(q, res.Cost*(1-1e-9))) {
			bad = fmt.Errorf("core answer %v for a probe instance is not optimal", res.Cost)
		}
	}
	plans := make([]htier.Result, len(large))
	plan, _ := timeEach(probeRepeats*len(large), func(i int) {
		res, err := htier.Plan(large[i%len(large)], htier.Options{})
		if err != nil {
			bad = err
		}
		plans[i%len(large)] = res
	})
	if bad != nil {
		return fmt.Errorf("cold probe: %w", bad)
	}
	var reg float64
	for i, q := range large {
		if err := checkPlan(q, plans[i].Plan); err != nil {
			return fmt.Errorf("cold probe: heuristic plan: %w", err)
		}
		reg += regret(q, evalCost(q, plans[i].Plan))
	}
	out["model.query_decode_us"] = us(decode)
	out["model.validate_us"] = us(validate)
	out["core.search_us"] = us(search)
	out["core.nodes_per_search"] = float64(nodes) / float64(len(exact))
	out["core.dom_prunes_per_search"] = float64(prunes) / float64(len(exact))
	out["htier.plan_us"] = us(plan)
	out["htier.regret"] = reg / float64(len(large))
	return nil
}

// probeExec runs the execute-faults queries one at a time through a fresh
// executor stack: the counts repeat exactly for a seed, because a single
// caller replays the fault plan's decisions in the same order.
func probeExec(seed int64, out layers) error {
	e := &execBench{}
	if err := e.generate(seed, 1); err != nil {
		return err
	}
	mock, inj, ex, reg, err := e.newExecStack()
	if err != nil {
		return err
	}
	p := planner.New(planner.Config{Adaptive: reg})
	ctx := context.Background()
	plans := make([]model.Plan, len(e.cases))
	for i, c := range e.cases {
		res, err := p.Optimize(ctx, c.q)
		if err != nil {
			return err
		}
		plans[i] = res.Plan
	}
	n := 4 * len(e.cases)
	results := make([]*exec.Result, n)
	var bad error
	execute, _ := timeEach(n, func(i int) {
		k := i % len(e.cases)
		res, err := ex.Execute(ctx, e.cases[k].q, plans[k], exec.Tuples(execTuples))
		if err != nil {
			bad = err
			return
		}
		results[i] = res
	})
	if bad != nil {
		return fmt.Errorf("exec probe: %w", bad)
	}
	var calls, retries int64
	for i, res := range results {
		if res.Degraded != nil || res.TuplesOut != e.cases[i%len(e.cases)].expected {
			return fmt.Errorf("exec probe: execution %d degraded or wrong: %v", i, res.Degraded)
		}
		retries += res.Retries
		for _, st := range res.Stages {
			calls += st.Calls
		}
	}
	// The backend's share: the same blocks, called directly in plan order.
	backend, _ := timeEach(n, func(i int) {
		k := i % len(e.cases)
		q := e.cases[k].q
		tuples := exec.Tuples(execTuples)
		for _, s := range plans[k] {
			var next []exec.Tuple
			for lo := 0; lo < len(tuples); lo += exec.DefaultBlockSize {
				hi := min(lo+exec.DefaultBlockSize, len(tuples))
				res, err := mock.Call(ctx, q.Services[s].Name, tuples[lo:hi])
				if err != nil {
					bad = err
					return
				}
				next = append(next, res.Tuples...)
			}
			tuples = next
		}
	})
	observe, _ := timeEach(n, func(i int) {
		if _, err := reg.Observe(results[i].Report()); err != nil {
			bad = err
		}
	})
	if bad != nil {
		return fmt.Errorf("exec probe: %w", bad)
	}
	out["exec.execute_us"] = us(execute)
	out["exec.backend_call_us"] = us(backend)
	out["exec.self_us"] = us(execute - backend)
	out["exec.calls_per_req"] = float64(calls) / float64(n)
	out["exec.retries_per_req"] = float64(retries) / float64(n)
	out["faultinject.errors_per_req"] = float64(inj.Stats().Errors) / float64(n)
	out["adapt.observe_us"] = us(observe)
	out["adapt.generations"] = float64(reg.Generation())
	return nil
}

// probeFleet times the forward hop and the fleet's bookkeeping on a
// primed three-peer fleet with no HTTP servers.
func probeFleet(seed int64, out layers) error {
	in := newCorpus(seed, 1)
	peers, err := startFleet(1)
	if err != nil {
		return err
	}
	defer closeFleet(peers) // error ignored: probe peers serve no clients; the workload checks its own teardown
	owner, target, err := primeFleet(peers, in)
	if err != nil {
		return err
	}
	sigs := make([]planner.Signature, corpusSize)
	for i, q := range in.queries {
		sigs[i], _ = peers[0].p.SignatureFor(q)
	}
	n := probeRounds * corpusSize
	var bad error
	forward, _ := timeEach(n, func(i int) {
		k := i % corpusSize
		status, _, _, err := peers[target[k]].fp.Forward(peers[owner[k]].fp.Self(), "/v1/optimize", in.bodies[k])
		if err != nil || status != http.StatusOK {
			bad = fmt.Errorf("forward: status %d: %v", status, err)
		}
	})
	route, _ := timeEach(n, func(i int) { peers[target[i%corpusSize]].fp.Route(sigs[i%corpusSize]) })
	w := newSink()
	reqs := make([]*http.Request, n)
	for i := range reqs {
		if reqs[i], err = http.NewRequest(http.MethodPost, "/v1/optimize", bytes.NewReader(in.bodies[i%corpusSize])); err != nil {
			return err
		}
	}
	ownerHandler, _ := timeEach(n, func(i int) {
		w.reset()
		peers[owner[i%corpusSize]].h.ServeHTTP(w, reqs[i])
		if w.status != http.StatusOK {
			bad = fmt.Errorf("owner handler: status %d", w.status)
		}
	})
	// Forwards per request: the corpus sent in process, no socket, to each
	// instance's forwarding peer, counted by the fleet's own Stats.
	forwarded := func() (f int64) {
		for _, pe := range peers {
			f += pe.fp.Stats().Forwarded
		}
		return f
	}
	for i := range reqs {
		if reqs[i], err = http.NewRequest(http.MethodPost, "/v1/optimize", bytes.NewReader(in.bodies[i%corpusSize])); err != nil {
			return err
		}
	}
	f0 := forwarded()
	for i := 0; i < n; i++ {
		w.reset()
		peers[target[i%corpusSize]].h.ServeHTTP(w, reqs[i])
		if w.status != http.StatusOK {
			bad = fmt.Errorf("forwarding handler: status %d", w.status)
		}
	}
	perReq := float64(forwarded()-f0) / float64(n)
	if bad == nil && perReq != 1 {
		bad = fmt.Errorf("%v forwards per request through the forwarding peer, want 1", perReq)
	}
	entries := make([][]byte, n)
	export, _ := timeEach(n, func(i int) {
		k := i % corpusSize
		data, ok := peers[owner[k]].p.ExportEntry(sigs[k])
		if !ok {
			bad = fmt.Errorf("owner holds no entry to export")
		}
		entries[i] = data
	})
	scratch := planner.New(planner.Config{})
	imp, _ := timeEach(n, func(i int) {
		if _, _, err := scratch.ImportEntry(entries[i]); err != nil {
			bad = err
		}
	})
	if bad != nil {
		return fmt.Errorf("fleet probe: %w", bad)
	}
	out["fleet.forward_us"] = us(forward)
	out["fleet.route_ns"] = float64(route)
	out["choreo.hop_us"] = us(forward - ownerHandler)
	out["planner.export_entry_us"] = us(export)
	out["planner.import_entry_us"] = us(imp)
	out["fleet.owner_handler_us"] = us(ownerHandler)
	out["fleet.forwarded_per_req"] = perReq
	return nil
}

// heapAllocs reads the cumulative count of heap allocations.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func median(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sortDurations(s)
	return s[len(s)/2]
}

func sortDurations(d []time.Duration) { sort.Slice(d, func(i, j int) bool { return d[i] < d[j] }) }

// percentile reads the p-quantile of sorted durations.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

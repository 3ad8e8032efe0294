package main

// The four workloads. Each builds the real program objects (planner,
// admission controller, /v1 handler, executor, fleet peers) and serves
// them over loopback; each checks every distinct answer against the
// oracle after the phase that produced it.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"serviceordering/internal/adapt"
	"serviceordering/internal/admit"
	"serviceordering/internal/choreo"
	"serviceordering/internal/exec"
	"serviceordering/internal/faultinject"
	"serviceordering/internal/fleet"
	"serviceordering/internal/model"
	"serviceordering/internal/planner"
	"serviceordering/internal/serve"
)

// bench is one workload.
type bench interface {
	// generate makes the inputs and the oracle's data from the seed. It
	// is not part of setup_s.
	generate(seed int64, clients int) error
	// setup builds the program and primes it; setup_s times it.
	setup(tr *tracer) error
	// teardown closes every server, listener and connection and checks
	// that each listener refuses connections afterwards.
	teardown() error
	// next is the request source; valid after setup.
	next(client int) (request, bool)
	// beginOpen switches next to the open loop's inputs.
	beginOpen()
	// check verifies the distinct response bodies of one phase.
	check(bodies []stored) error
	// counters snapshots the program's own counters.
	counters() counters
	// closedClients is how many clients drive the closed loop; the open
	// loop uses all of them.
	closedClients() int
	// openRate is the open-loop arrival rate, requests per second.
	openRate() float64
	// arenaBytes bounds the distinct response bytes one client keeps
	// per phase.
	arenaBytes(seconds float64) int
}

// counters are the program counters the per-layer counts derive from.
type counters struct {
	planner   planner.Stats
	admitted  int64
	queued    int64
	forwarded int64
	fwdFailed int64
}

func (c counters) add(p planner.Stats) counters {
	s := &c.planner
	s.Hits += p.Hits
	s.Misses += p.Misses
	s.Searches += p.Searches
	s.SharedWaits += p.SharedWaits
	s.Evictions += p.Evictions
	s.MemoHits += p.MemoHits
	s.SearchNodes += p.SearchNodes
	s.DominancePrunes += p.DominancePrunes
	return c
}

// minus returns the counter growth from b to c.
func (c counters) minus(b counters) counters {
	d := c
	d.planner.Hits -= b.planner.Hits
	d.planner.Misses -= b.planner.Misses
	d.planner.Searches -= b.planner.Searches
	d.planner.SharedWaits -= b.planner.SharedWaits
	d.planner.Evictions -= b.planner.Evictions
	d.planner.MemoHits -= b.planner.MemoHits
	d.planner.SearchNodes -= b.planner.SearchNodes
	d.planner.DominancePrunes -= b.planner.DominancePrunes
	d.admitted -= b.admitted
	d.queued -= b.queued
	d.forwarded -= b.forwarded
	d.fwdFailed -= b.fwdFailed
	return d
}

func (c counters) addAdmit(a admit.Stats) counters {
	c.admitted += a.Admitted
	c.queued += a.AdmittedQueued
	return c
}

// neverShed sizes admission so that the at most `clients` concurrent
// requests the load generator sends are always admitted at once.
func neverShed(clients int) *admit.Controller {
	return admit.New(admit.Options{MaxConcurrent: clients, MaxQueue: 4 * clients, MaxWait: 10 * time.Second})
}

// server is one loopback HTTP server.
type server struct {
	srv  *http.Server
	addr string
	url  string
	done chan error
}

func startServer(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{srv: &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}, addr: ln.Addr().String(), done: make(chan error, 1)}
	s.url = "http://" + s.addr
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// close shuts the server and its connections, waits for Serve to return,
// and checks that the port no longer accepts connections.
func (s *server) close() error {
	if err := s.srv.Close(); err != nil {
		return fmt.Errorf("closing server %s: %w", s.addr, err)
	}
	if err := <-s.done; err != nil && err != http.ErrServerClosed {
		return fmt.Errorf("server %s: %w", s.addr, err)
	}
	return refuses(s.addr)
}

// refuses checks that nothing listens on addr any more.
func refuses(addr string) error {
	c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
	if err == nil {
		_ = c.Close() // the check has already failed; the close result adds nothing
		return fmt.Errorf("%s still accepts connections after close", addr)
	}
	return nil
}

// prime sends body to h in process, as a request would arrive, and fails
// unless the answer is a 200.
func prime(h http.Handler, path string, body []byte) error {
	req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	w := newSink()
	h.ServeHTTP(w, req)
	if w.status != http.StatusOK {
		return fmt.Errorf("priming %s: status %d: %.200s", path, w.status, w.body.Bytes())
	}
	return nil
}

// sink is a reusable in-process ResponseWriter.
type sink struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func newSink() *sink { return &sink{hdr: make(http.Header, 4), status: http.StatusOK} }

func (s *sink) Header() http.Header         { return s.hdr }
func (s *sink) WriteHeader(code int)        { s.status = code }
func (s *sink) Write(b []byte) (int, error) { return s.body.Write(b) }

func (s *sink) reset() {
	clear(s.hdr)
	s.status = http.StatusOK
	s.body.Reset()
}

// solved is the part of a /v1/optimize answer the checks read.
type solved struct {
	Data *struct {
		Plan    []int   `json:"plan"`
		Cost    float64 `json:"cost"`
		Optimal bool    `json:"optimal"`
		Tier    string  `json:"tier"`
		Cached  bool    `json:"cached"`
	} `json:"data"`
	Error *struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// checkSolved verifies one /v1/optimize answer for q: a feasible plan,
// the reported cost equal to Eq. (1) of that plan, exact-tier answers
// optimal, and every claimed optimum proven by the oracle (no order costs
// less). A heuristic answer is then never below the optimum, since its
// cost is that of a feasible plan. It returns the answer's tier.
func checkSolved(q *model.Query, body []byte) (tier string, err error) {
	var s solved
	if err := json.Unmarshal(body, &s); err != nil {
		return "", fmt.Errorf("decoding answer: %w", err)
	}
	if s.Error != nil || s.Data == nil {
		return "", fmt.Errorf("answer carries an error: %+v", s.Error)
	}
	d := s.Data
	if err := checkPlan(q, d.Plan); err != nil {
		return "", err
	}
	if got := evalCost(q, d.Plan); got != d.Cost {
		return "", fmt.Errorf("reported cost %v, Eq. (1) of the plan is %v", d.Cost, got)
	}
	if d.Tier == planner.TierExact && !d.Optimal {
		return "", fmt.Errorf("exact-tier answer not marked optimal")
	}
	if d.Optimal && feasibleAtMost(q, d.Cost*(1-1e-9)) {
		return "", fmt.Errorf("answer claims optimal cost %v but a cheaper order exists", d.Cost)
	}
	return d.Tier, nil
}

// ---- warm-optimize -------------------------------------------------------

// corpus is the primed instance set shared by warm-optimize and
// fleet-forward: n = 12, drawn from the plain, precedence and sink-source
// families in turn.
const (
	corpusSize = 12
	corpusN    = 12
	zipfSkew   = 1.2
	streamLen  = 1 << 16
)

type corpus struct {
	queries []*model.Query
	bodies  [][]byte
	streams [][]int // per client: zipf draws over the corpus
	pos     []int   // per client: next stream position
}

func newCorpus(seed int64, clients int) *corpus {
	c := &corpus{}
	for i := 0; i < corpusSize; i++ {
		q := genQuery(instanceSeed(seed, 1, i), corpusN, family(i%3), fmt.Sprintf("w%d", i))
		c.queries = append(c.queries, q)
		c.bodies = append(c.bodies, optimizeBody(q))
	}
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < clients; k++ {
		c.streams = append(c.streams, zipfStream(rng, zipfSkew, corpusSize, streamLen))
	}
	c.pos = make([]int, clients)
	return c
}

// draw returns client k's next corpus index.
func (c *corpus) draw(k int) int {
	i := c.streams[k][c.pos[k]%streamLen]
	c.pos[k]++
	return i
}

func (c *corpus) check(bodies []stored) error {
	for _, b := range bodies {
		if _, err := checkSolved(c.queries[b.inst], b.body); err != nil {
			return fmt.Errorf("corpus instance %d: %w", b.inst, err)
		}
	}
	return nil
}

type warmBench struct {
	clients int
	in      *corpus
	p       *planner.Planner
	ctrl    *admit.Controller
	h       http.Handler
	srv     *server
}

func (w *warmBench) generate(seed int64, clients int) error {
	w.clients = clients
	w.in = newCorpus(seed, clients)
	return nil
}

func (w *warmBench) setup(tr *tracer) error {
	w.p = planner.New(planner.Config{})
	w.ctrl = neverShed(w.clients)
	w.h = serve.NewHandler(w.p, serve.Options{Admission: w.ctrl})
	for _, b := range w.in.bodies {
		if err := prime(w.h, "/v1/optimize", b); err != nil {
			return err
		}
	}
	var err error
	w.srv, err = startServer(tr.wrap("serve", w.h))
	return err
}

func (w *warmBench) teardown() error { return w.srv.close() }

func (w *warmBench) next(k int) (request, bool) {
	i := w.in.draw(k)
	return request{url: w.srv.url + "/v1/optimize", body: w.in.bodies[i], inst: i}, true
}

func (w *warmBench) check(bodies []stored) error { return w.in.check(bodies) }

func (w *warmBench) counters() counters {
	return counters{}.add(w.p.Stats()).addAdmit(w.ctrl.Stats())
}

func (*warmBench) beginOpen() {}

// closedClients: every processor stays busy. A warm request is mostly
// hand-offs between goroutines; with a processor idle, each hand-off
// waited on a hypervisor wake-up, and with one client ok_per_s and p90
// spread 0.30 and 0.19 of their median over five runs, against 0.08 and
// 0.07 with nproc clients interleaved with them.
func (w *warmBench) closedClients() int { return w.clients }

func (w *warmBench) openRate() float64 { return 3000 }

func (w *warmBench) arenaBytes(float64) int { return 1 << 20 }

// ---- cold-optimize -------------------------------------------------------

// The cold pool: every request is an instance the process has never seen.
// Exact-tier sizes n = 10..13 over all four families; every largeEvery-th
// instance is a heuristic-tier one, n = 16..20. The plan cache holds
// coldCache entries, far fewer than a run sends, so it evicts. The closed
// loop draws from its own share of the pool, sized at coldClosedRate
// requests per second: about what one client gets from a warm-optimize
// cache hit, which a never-seen instance cannot beat, so a faster search
// never runs the pool dry. The open loop draws from a share sized by its
// fixed rate, which is low: the searches of a window's slowest instances
// and the collections they trigger overlap the arrivals behind them, more
// often the higher the rate. In four interleaved triples of short runs
// the open p90 ranged 0.93-1.43 ms at 100 requests a second, 0.83-2.21
// ms at 200 and 1.77-3.38 ms at 800.
const (
	coldClosedRate = 8000
	coldOpenRate   = 100
	largeEvery     = 32
	coldCache      = 256
)

type coldBench struct {
	seed    int64
	clients int
	bodies  [][]byte // slices of poolMem, which is off-heap
	poolMem []byte
	closedN int // bodies[:closedN] serve closed loops, the rest open loops
	drawn   atomic.Int64
	open    atomic.Bool
	p       *planner.Planner
	ctrl    *admit.Controller
	h       http.Handler
	srv     *server
}

func coldShape(i int) (n int, fam family) {
	if i%largeEvery == largeEvery-1 {
		k := i / largeEvery
		return 16 + k%5, family(k % int(numFamilies))
	}
	return 10 + i%4, family((i / 4) % int(numFamilies))
}

// query regenerates pool instance i. Its numbers carry four decimals,
// which keeps the pre-encoded pool small.
func (c *coldBench) query(i int) *model.Query {
	n, fam := coldShape(i)
	return roundQuery(genQuery(instanceSeed(c.seed, 2, i), n, fam, fmt.Sprintf("c%d", i)))
}

func (c *coldBench) generate(seed int64, clients int) error {
	c.seed, c.clients = seed, clients
	return nil
}

// sizePool encodes the pool for closed and open loops of the given
// lengths; the runner calls it once the phase lengths are known.
func (c *coldBench) sizePool(closed, open time.Duration) {
	c.closedN = int(coldClosedRate * closed.Seconds())
	total := c.closedN + int(coldOpenRate*open.Seconds()) + 16
	c.bodies = make([][]byte, total)
	size := 0
	for i := range c.bodies {
		c.bodies[i] = optimizeBody(c.query(i))
		size += len(c.bodies[i])
	}
	c.poolMem = offHeap(size)
	off := 0
	for i, b := range c.bodies {
		n := copy(c.poolMem[off:], b)
		c.bodies[i] = c.poolMem[off : off+n : off+n]
		off += n
	}
}

// release unmaps the pool.
func (c *coldBench) release() {
	if c.poolMem != nil {
		freeOffHeap(c.poolMem)
		c.bodies, c.poolMem = nil, nil
	}
}

func (c *coldBench) setup(tr *tracer) error {
	c.p = planner.New(planner.Config{CacheCapacity: coldCache})
	c.ctrl = neverShed(c.clients)
	c.h = serve.NewHandler(c.p, serve.Options{Admission: c.ctrl})
	var err error
	c.srv, err = startServer(tr.wrap("serve", c.h))
	return err
}

func (c *coldBench) teardown() error { return c.srv.close() }

func (c *coldBench) beginOpen() {
	c.drawn.Store(int64(c.closedN))
	c.open.Store(true)
}

func (c *coldBench) next(int) (request, bool) {
	i := int(c.drawn.Add(1) - 1)
	if (!c.open.Load() && i >= c.closedN) || i >= len(c.bodies) {
		return request{}, false
	}
	return request{url: c.srv.url + "/v1/optimize", body: c.bodies[i], inst: i}, true
}

func (c *coldBench) check(bodies []stored) error {
	return parallel(len(bodies), c.clients, func(k int) error {
		b := bodies[k]
		q := c.query(b.inst)
		tier, err := checkSolved(q, b.body)
		if err != nil {
			return fmt.Errorf("cold instance %d (n=%d): %w", b.inst, q.N(), err)
		}
		if strings.HasPrefix(tier, "heuristic/") != (q.N() >= 16) {
			return fmt.Errorf("cold instance %d (n=%d) answered by tier %q", b.inst, q.N(), tier)
		}
		return nil
	})
}

func (c *coldBench) counters() counters {
	return counters{}.add(c.p.Stats()).addAdmit(c.ctrl.Stats())
}

// closedClients: one caller. A cold request is mostly one goroutine's
// search; with two callers saturating both vCPUs, time another tenant
// took from either went straight into each figure, and p50, p90 and
// cpu_us_per_req spread about twice as wide between interleaved runs.
func (c *coldBench) closedClients() int { return 1 }

func (c *coldBench) openRate() float64 { return coldOpenRate }

// arenaBytes lets one client keep the answers to the whole pool, each at
// most its request plus the plan and provenance; untouched pages of the
// mapping cost nothing.
func (c *coldBench) arenaBytes(float64) int {
	total := 0
	for _, b := range c.bodies {
		total += len(b) + 512
	}
	return total
}

// parallel runs f(0..n-1) on at most workers goroutines and returns the
// first error.
func parallel(n, workers int, f func(int) error) error {
	var wg sync.WaitGroup
	var next atomic.Int64
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= n || errs[w] != nil {
					return
				}
				errs[w] = f(k)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ---- execute-faults ------------------------------------------------------

// execute-faults: filter-only n = 8 queries over a mock backend that
// realizes their declared statistics, behind a seeded fault plan that
// fails faultRate of the calls to two services per query. The retry
// budget absorbs every fault (failing a request would take more than
// execRetries failures among its ~30 calls) and breakers and hedging are
// off, so no request degrades. The registry ingests every execution
// report but never trusts an estimate, so the statistics generation stays
// 0 and the served plan must be exactly optimal under the true statistics.
const (
	execQueries = 64
	execN       = 8
	execTuples  = 1024
	faultRate   = 0.004
	execRetries = 16
)

type execCase struct {
	q        *model.Query
	body     []byte
	opt      float64
	expected int64 // tuples that pass every service
}

type execBench struct {
	seed    int64
	clients int
	cases   []execCase
	faults  faultinject.Plan
	streams [][]int
	pos     []int

	p    *planner.Planner
	ctrl *admit.Controller
	h    http.Handler
	srv  *server
}

func (e *execBench) generate(seed int64, clients int) error {
	e.seed, e.clients = seed, clients
	rng := rand.New(rand.NewSource(seed))
	e.faults = faultinject.Plan{Seed: seed, Services: make(map[string]faultinject.Faults)}
	oracleBackend := exec.NewMockBackend(seed)
	for i := 0; i < execQueries; i++ {
		q := genQuery(instanceSeed(seed, 3, i), execN, famPlain, fmt.Sprintf("e%d", i))
		oracleBackend.SetQuery(q)
		for _, s := range rng.Perm(execN)[:2] {
			e.faults.Services[q.Services[s].Name] = faultinject.Faults{ErrorRate: faultRate}
		}
		// Filters decide each tuple independently, so the survivors of
		// the whole query do not depend on the order the services run.
		tuples := exec.Tuples(execTuples)
		for _, s := range q.Services {
			res, err := oracleBackend.Call(context.Background(), s.Name, tuples)
			if err != nil {
				return fmt.Errorf("oracle backend: %w", err)
			}
			tuples = res.Tuples
		}
		e.cases = append(e.cases, execCase{q: q, body: executeBody(q, execTuples), opt: optimum(q), expected: int64(len(tuples))})
	}
	for k := 0; k < clients; k++ {
		s := make([]int, streamLen)
		for j := range s {
			s[j] = rng.Intn(execQueries)
		}
		e.streams = append(e.streams, s)
	}
	e.pos = make([]int, clients)
	return nil
}

// newExecStack builds the backend, fault plan, executor and registry one
// execute-faults program uses.
func (e *execBench) newExecStack() (*exec.MockBackend, *faultinject.Injector, *exec.Executor, *adapt.Registry, error) {
	mock := exec.NewMockBackend(e.seed)
	for _, c := range e.cases {
		mock.SetQuery(c.q)
	}
	inj := faultinject.Wrap(mock, e.faults)
	ex := exec.New(inj, exec.Options{
		RetryBudget:      execRetries,
		RetryBase:        100 * time.Microsecond,
		RetryMax:         2 * time.Millisecond,
		BreakerThreshold: -1,
		HedgeDelay:       -1,
	})
	reg, err := adapt.New(adapt.Config{MinObservations: 1 << 40})
	return mock, inj, ex, reg, err
}

func (e *execBench) setup(tr *tracer) error {
	_, _, ex, reg, err := e.newExecStack()
	if err != nil {
		return err
	}
	e.p = planner.New(planner.Config{Adaptive: reg})
	e.ctrl = neverShed(e.clients)
	e.h = serve.NewHandler(e.p, serve.Options{Admission: e.ctrl, Executor: ex})
	for _, c := range e.cases {
		if err := prime(e.h, "/v1/execute", c.body); err != nil {
			return err
		}
	}
	e.srv, err = startServer(tr.wrap("serve", e.h))
	return err
}

func (e *execBench) teardown() error { return e.srv.close() }

func (e *execBench) next(k int) (request, bool) {
	i := e.streams[k][e.pos[k]%streamLen]
	e.pos[k]++
	return request{url: e.srv.url + "/v1/execute", body: e.cases[i].body, inst: i}, true
}

func (e *execBench) check(bodies []stored) error {
	for _, b := range bodies {
		if err := e.checkOne(e.cases[b.inst], b.body); err != nil {
			return fmt.Errorf("execute query %d: %w", b.inst, err)
		}
	}
	return nil
}

func (e *execBench) checkOne(c execCase, body []byte) error {
	var env struct {
		Data  *serve.ExecuteResponse `json:"data"`
		Error json.RawMessage        `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return fmt.Errorf("decoding answer: %w", err)
	}
	d := env.Data
	if d == nil {
		return fmt.Errorf("answer carries an error: %s", env.Error)
	}
	if d.Degraded != nil {
		return fmt.Errorf("degraded: %s", d.Degraded)
	}
	if d.TuplesIn != execTuples || d.TuplesOut != c.expected {
		return fmt.Errorf("tuples %d -> %d, the backend's services pass %d of %d", d.TuplesIn, d.TuplesOut, c.expected, execTuples)
	}
	if err := checkPlan(c.q, d.Plan); err != nil {
		return err
	}
	if got := evalCost(c.q, d.Plan); got != d.Cost {
		return fmt.Errorf("reported cost %v, Eq. (1) of the plan under the true statistics is %v", d.Cost, got)
	}
	if !sameCost(d.Cost, c.opt) || !d.Optimal {
		return fmt.Errorf("plan cost %v (optimal=%v), the true optimum is %v", d.Cost, d.Optimal, c.opt)
	}
	if !d.Observed {
		return fmt.Errorf("execution report was not fed to the registry")
	}
	return nil
}

func (e *execBench) counters() counters {
	return counters{}.add(e.p.Stats()).addAdmit(e.ctrl.Stats())
}

func (*execBench) beginOpen() {}

// closedClients: every processor stays busy; an execution hands blocks
// between stage goroutines, like the warm path.
func (e *execBench) closedClients() int { return e.clients }

func (e *execBench) openRate() float64 { return 700 }

// arenaBytes lets one client keep a distinct answer, at most 2 KiB, for
// every request at up to 5000 requests a second.
func (e *execBench) arenaBytes(seconds float64) int {
	return int(5000*seconds) * 2 << 10
}

// ---- fleet-forward -------------------------------------------------------

// fleet-forward: three peers at replication 2 serve the warm corpus. Each
// corpus instance is sent to the one peer that holds neither its plan nor
// a replica, found with the fleet's own Route after priming, so every
// request takes exactly one forward hop whatever ports the OS assigns.
const fleetPeers = 3

type fleetBench struct {
	clients int
	in      *corpus
	peers   []*fleetPeer
	target  []int // corpus index -> forwarding peer
}

type fleetPeer struct {
	ps   *choreo.PeerServer
	fp   *fleet.Peer
	p    *planner.Planner
	ctrl *admit.Controller
	h    http.Handler
	srv  *server
}

func (f *fleetBench) generate(seed int64, clients int) error {
	f.clients = clients
	f.in = newCorpus(seed, clients)
	return nil
}

// startFleet brings up the peers with handlers but no HTTP servers.
func startFleet(clients int) ([]*fleetPeer, error) {
	peers := make([]*fleetPeer, fleetPeers)
	addrs := make([]string, fleetPeers)
	for i := range peers {
		ps, err := choreo.ListenPeer("127.0.0.1:0", "perfbench")
		if err != nil {
			closeFleet(peers)
			return nil, err
		}
		peers[i] = &fleetPeer{ps: ps}
		addrs[i] = ps.Addr()
	}
	for i, pe := range peers {
		pe.p = planner.New(planner.Config{})
		fp, err := fleet.New(fleet.Options{FleetID: "perfbench", Self: addrs[i], Peers: addrs, Replication: 2, Planner: pe.p, Server: pe.ps})
		if err != nil {
			closeFleet(peers)
			return nil, err
		}
		pe.fp = fp
		pe.ctrl = neverShed(clients)
		pe.h = serve.NewHandler(pe.p, serve.Options{Admission: pe.ctrl, Fleet: fp})
		fp.Run()
	}
	return peers, nil
}

// closeFleet stops every peer and checks that its listeners are gone.
func closeFleet(peers []*fleetPeer) error {
	var first error
	note := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, pe := range peers {
		if pe == nil {
			continue
		}
		if pe.srv != nil {
			note(pe.srv.close())
		}
		if pe.fp != nil {
			pe.fp.Close()
		} else if pe.ps != nil {
			note(pe.ps.Close())
		}
		note(refuses(pe.ps.Addr()))
	}
	return first
}

// primeFleet warms every corpus instance on its owner, waits for the
// replicas, and returns each instance's owner and its one forwarding peer.
func primeFleet(peers []*fleetPeer, in *corpus) (owner, target []int, err error) {
	index := make(map[string]int, len(peers))
	for i, pe := range peers {
		index[pe.fp.Self()] = i
	}
	sigs := make([]planner.Signature, len(in.queries))
	for k, q := range in.queries {
		sig, ok := peers[0].p.SignatureFor(q)
		if !ok {
			return nil, nil, fmt.Errorf("corpus instance %d has no signature", k)
		}
		sigs[k] = sig
		o := index[peers[0].fp.Owner(sig)]
		owner = append(owner, o)
		if err := prime(peers[o].h, "/v1/optimize", in.bodies[k]); err != nil {
			return nil, nil, err
		}
	}
	for _, pe := range peers {
		pe.fp.FlushReplication()
	}
	for k, sig := range sigs {
		t := -1
		for i, pe := range peers {
			if d, _ := pe.fp.Route(sig); d == fleet.Forward {
				if t >= 0 {
					return nil, nil, fmt.Errorf("corpus instance %d: two peers forward it", k)
				}
				t = i
			}
		}
		if t < 0 {
			return nil, nil, fmt.Errorf("corpus instance %d: every peer holds it", k)
		}
		target = append(target, t)
	}
	return owner, target, nil
}

func (f *fleetBench) setup(tr *tracer) error {
	var err error
	if f.peers, err = startFleet(f.clients); err != nil {
		return err
	}
	if _, f.target, err = primeFleet(f.peers, f.in); err != nil {
		return err
	}
	for _, pe := range f.peers {
		if pe.srv, err = startServer(tr.wrap("serve", pe.h)); err != nil {
			return err
		}
	}
	return nil
}

func (f *fleetBench) teardown() error { return closeFleet(f.peers) }

func (f *fleetBench) next(k int) (request, bool) {
	i := f.in.draw(k)
	return request{url: f.peers[f.target[i]].srv.url + "/v1/optimize", body: f.in.bodies[i], inst: i}, true
}

func (f *fleetBench) check(bodies []stored) error { return f.in.check(bodies) }

func (f *fleetBench) counters() counters {
	var c counters
	for _, pe := range f.peers {
		c = c.add(pe.p.Stats()).addAdmit(pe.ctrl.Stats())
		st := pe.fp.Stats()
		c.forwarded += st.Forwarded
		c.fwdFailed += st.ForwardFailed
	}
	return c
}

func (*fleetBench) beginOpen() {}

// closedClients: every processor stays busy; a forwarded request hands
// off between goroutines on three servers, like the warm path.
func (f *fleetBench) closedClients() int { return f.clients }

func (f *fleetBench) openRate() float64 { return 600 }

func (f *fleetBench) arenaBytes(float64) int { return 1 << 20 }

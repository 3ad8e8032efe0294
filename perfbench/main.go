// Command perfbench is the repository's benchmark: workloads against the
// real /v1 handlers over loopback, every answer checked against an
// oracle written here, end-to-end metrics from an untraced run and a
// per-layer ledger from a traced one. See README.md.
//
//	perfbench --workload warm-optimize --seed 1 --seconds 10 --trace 0
//	perfbench --workload cold-optimize --seed 1 --seconds 10 --repeat 5
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. The exit code is nonzero when a check fails, an
// operation fails, or a watchdog expires.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

type metricDef struct {
	name, unit string
}

// endToEnd and perLayer are the metrics BENCHMARK.json declares, in the
// order the report prints them.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"ok_per_s", "1/s"}, {"p50_us", "us"}, {"p90_us", "us"},
	{"open_p50_us", "us"}, {"open_p90_us", "us"}, {"cpu_us_per_req", "us"},
	{"allocs_per_req", "count"}, {"heap_peak_mb", "MB"},
}

var perLayer = []metricDef{
	{"serve.handler_us", "us"}, {"serve.handler_allocs", "count"}, {"serve.self_us", "us"},
	{"http.transport_us", "us"}, {"ccache.fnv64_ns", "ns"},
	{"model.query_decode_us", "us"}, {"model.validate_us", "us"},
	{"admit.acquire_release_ns", "ns"}, {"admit.queued_per_req", "count"},
	{"planner.optimize_warm_us", "us"}, {"planner.optimize_warm_allocs", "count"},
	{"planner.classify_us", "us"}, {"planner.signature_us", "us"},
	{"planner.hit_ratio", "ratio"}, {"planner.searches_per_req", "count"},
	{"planner.memo_hits_per_req", "count"}, {"planner.shared_waits", "count"},
	{"planner.evictions_per_req", "count"},
	{"planner.export_entry_us", "us"}, {"planner.import_entry_us", "us"},
	{"core.search_us", "us"}, {"core.nodes_per_search", "count"}, {"core.dom_prunes_per_search", "count"},
	{"htier.plan_us", "us"}, {"htier.regret", "ratio"},
	{"exec.execute_us", "us"}, {"exec.backend_call_us", "us"}, {"exec.self_us", "us"},
	{"exec.calls_per_req", "count"}, {"exec.retries_per_req", "count"},
	{"faultinject.errors_per_req", "count"},
	{"adapt.observe_us", "us"}, {"adapt.generations", "count"},
	{"fleet.forward_us", "us"}, {"fleet.route_ns", "ns"}, {"fleet.forwarded_per_req", "count"},
	{"choreo.hop_us", "us"},
	{"runtime.gc_per_kreq", "count"}, {"runtime.gc_pause_us", "us"},
	{"loadgen.late_p90_us", "us"},
}

// workloads are the ones BENCHMARK.json declares. extraWorkloads run on
// request but are left out of it: on this 2-vCPU host their figures did
// not repeat closely enough from run to run (see README.md).
var (
	workloads      = []string{"warm-optimize", "cold-optimize"}
	extraWorkloads = []string{"execute-faults", "fleet-forward"}
)

func newBench(name string) (bench, error) {
	switch name {
	case "warm-optimize":
		return &warmBench{}, nil
	case "cold-optimize":
		return &coldBench{}, nil
	case "execute-faults":
		return &execBench{}, nil
	case "fleet-forward":
		return &fleetBench{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(append(workloads, extraWorkloads...), ", "))
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(append(workloads, extraWorkloads...), ", "))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	repeat := flag.Int("repeat", 0, "steadiness mode: run the workload this many times with seeds seed, seed+1, ... and print each metric's spread")
	flag.Parse()
	if _, err := newBench(*workload); err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --workload must name a workload, --seconds be at least 1 and --trace 0 or 1")
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
		os.Exit(2)
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d GOMAXPROCS=%d nproc=%d go=%s\n",
		*workload, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	if *repeat > 0 {
		os.Exit(steadiness(*workload, *seed, *seconds, *trace == 1, *repeat))
	}
	res, err := runOnce(*workload, *seed, float64(*seconds), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	if res == nil {
		os.Exit(1)
	}
	line, _ := json.Marshal(res) // plain numbers and strings always marshal
	fmt.Println(string(line))
	if err != nil || !res.Correct || res.Failed > 0 {
		os.Exit(1)
	}
}

// steadiness runs k runs in this process and prints per-metric quartiles
// the way the bounds in BENCHMARK.json are set from.
func steadiness(workload string, seed int64, seconds int, trace bool, k int) int {
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < k; i++ {
		res, err := runOnce(workload, seed+int64(i), float64(seconds), trace)
		if err != nil || res == nil || !res.Correct || res.Failed > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: run %d (seed %d) failed: %v\n", i, seed+int64(i), err)
			return 1
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	summary := map[string]map[string]float64{}
	fmt.Printf("%-30s %12s %12s %12s %12s %12s %8s\n", "metric", "min", "q1", "median", "q3", "max", "iqr/med")
	for _, name := range names {
		v := append([]float64(nil), values[name]...)
		sort.Float64s(v)
		q1, med, q3 := quartiles(v)
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Printf("%-30s %12.4g %12.4g %12.4g %12.4g %12.4g %8.4f %s\n", name, v[0], q1, med, q3, v[len(v)-1], spread, units[name])
		summary[name] = map[string]float64{"min": v[0], "q1": q1, "median": med, "q3": q3, "max": v[len(v)-1], "spread": spread}
	}
	line, _ := json.Marshal(map[string]any{"workload": workload, "runs": k, "summary": summary})
	fmt.Println(string(line))
	return 0
}

// quartiles matches Python's statistics.quantiles(v, n=4) (the default
// exclusive method) on sorted v.
func quartiles(v []float64) (q1, med, q3 float64) {
	if len(v) < 2 {
		return v[0], v[0], v[0]
	}
	q := func(i int) float64 {
		m := len(v) + 1
		j := min(max(i*m/4, 1), len(v)-1)
		delta := i*m - j*4
		return (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

package main

import (
	"fmt"
	"sort"
)

// metricSpec names one reported metric. End-to-end metrics carry the
// regression bound BENCHMARK.json declares; per-layer metrics carry the
// end-to-end metric and workload they are expected to move (the
// benchmark's written-down prediction, see README.md).
type metricSpec struct {
	Name, Unit, Better string
	Bound              float64 // end-to-end only: share of the parent median a change may worsen it by
	Moves              string  // per-layer only
}

// endToEnd is what a user of the system pays, and what the regression
// gate holds. Every workload reports every one of them with tracing
// off; all are non-zero on every workload by construction. The timings
// are process CPU time, not wall time: on a small virtual machine that
// shares its host, runs of the same code moved wall-clock throughput
// and latency by more than half from one run to the next, beyond any
// bound a regression gate can hold, while the host's steal stays out of
// CPU time. The phase lines record the wall-clock throughput and
// latencies instead (see README.md).
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_cpu_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "served_frac", Unit: "ratio", Better: "higher", Bound: 0.05},
	{Name: "heap_mb", Unit: "MB", Better: "lower", Bound: 0.1},
}

// perLayer comes from the traced run. A metric whose layer is off a
// workload's path reads 0 there.
var perLayer = []metricSpec{
	{Name: "graphio.parse_us", Unit: "us", Better: "lower", Moves: "op_cpu_ms on serve-hot-mutating"},
	{Name: "canon.us", Unit: "us", Better: "lower", Moves: "op_cpu_ms on serve-hot-mutating and serve-cold-sparse"},
	{Name: "domain.estimate_ms", Unit: "ms", Better: "lower", Moves: "op_cpu_ms on serve-cold-sparse"},
	{Name: "domain.preproc_ms", Unit: "ms", Better: "lower", Moves: "op_cpu_ms on serve-cold-sparse; op_cpu_ms on solve-dense (small)"},
	{Name: "domain.unary_ms", Unit: "ms", Better: "lower", Moves: "op_cpu_ms on serve-cold-sparse; op_cpu_ms on solve-dense (small)"},
	{Name: "domain.ac_ms", Unit: "ms", Better: "lower", Moves: "op_cpu_ms on serve-cold-sparse; op_cpu_ms on solve-dense (small)"},
	{Name: "domain.induced_ac_ms", Unit: "ms", Better: "lower", Moves: "op_cpu_ms on serve-cold-sparse; op_cpu_ms on solve-dense (small)"},
	{Name: "domain.final_size", Unit: "count", Better: "lower", Moves: "op_cpu_ms on solve-dense"},
	{Name: "domain.runs_per_miss", Unit: "ratio", Better: "lower", Moves: "op_cpu_ms on serve-cold-sparse"},
	{Name: "search.states", Unit: "count", Better: "lower", Moves: "op_cpu_ms on solve-dense"},
	{Name: "search.states_per_s", Unit: "1/s", Better: "higher", Moves: "op_cpu_ms on solve-dense"},
	{Name: "search.match_ms", Unit: "ms", Better: "lower", Moves: "op_cpu_ms on solve-dense"},
	{Name: "search.allocs_per_match", Unit: "count", Better: "lower", Moves: "op_cpu_ms on solve-dense"},
	{Name: "steal.steals", Unit: "count", Better: "lower", Moves: "steal.wall_speedup on solve-dense; no gated metric, which solves at one worker"},
	{Name: "steal.work_speedup", Unit: "ratio", Better: "higher", Moves: "steal.wall_speedup on solve-dense; no gated metric, which solves at one worker"},
	{Name: "steal.wall_speedup", Unit: "ratio", Better: "higher", Moves: "no gated metric: solve-dense gates its one-worker CPU time"},
	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher", Moves: "op_cpu_ms on serve-hot-mutating; about 0 on serve-cold-sparse"},
	{Name: "cache.evictions", Unit: "count", Better: "lower", Moves: "op_cpu_ms on serve-hot-mutating"},
	{Name: "singleflight.shared", Unit: "count", Better: "higher", Moves: "op_cpu_ms on serve-hot-mutating"},
	{Name: "admission.wait_ms", Unit: "ms", Better: "lower", Moves: "the phase lines' lat_p50_ms and lat_p99_ms on serve-cold-sparse"},
	{Name: "admission.wait_p99_ms", Unit: "ms", Better: "lower", Moves: "the phase lines' lat_p99_ms on serve-cold-sparse"},
	{Name: "admission.shed_frac", Unit: "ratio", Better: "lower", Moves: "served_frac on serve-cold-sparse"},
	{Name: "costmodel.mispredict", Unit: "count", Better: "lower", Moves: "the phase lines' lat_p99_ms on serve-cold-sparse"},
	{Name: "costmodel.false_shed", Unit: "count", Better: "lower", Moves: "served_frac on serve-cold-sparse"},
	{Name: "service.self_ms", Unit: "ms", Better: "lower", Moves: "op_cpu_ms on serve-*"},
	{Name: "http.self_ms", Unit: "ms", Better: "lower", Moves: "op_cpu_ms on serve-hot-mutating"},
	{Name: "update.apply_p50_ms", Unit: "ms", Better: "lower", Moves: "op_cpu_ms on serve-hot-mutating"},
	{Name: "update.apply_p99_ms", Unit: "ms", Better: "lower", Moves: "the phase lines' update_p99_ms on serve-hot-mutating"},
	{Name: "update.refill_misses", Unit: "count", Better: "lower", Moves: "op_cpu_ms on serve-hot-mutating"},
	{Name: "stats.plan_buckets", Unit: "count", Better: "lower", Moves: "heap_mb and op_cpu_ms on serve-hot-mutating"},
	{Name: "stats.scrape_ms", Unit: "ms", Better: "lower", Moves: "op_cpu_ms on serve-hot-mutating"},
	{Name: "harness.gen_lag_ms", Unit: "ms", Better: "lower", Moves: "none; validates the open-loop generator"},
	{Name: "harness.trace_overhead", Unit: "ratio", Better: "lower", Moves: "none; traced over untraced lat_p50_ms"},
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects one run's values by name; set panics on a name
// missing from specs, which is a benchmark bug.
type metrics struct {
	specs  []metricSpec
	values map[string]metricValue
}

func newMetrics(specs []metricSpec) *metrics {
	return &metrics{specs: specs, values: make(map[string]metricValue)}
}

func (m *metrics) set(name string, v float64) {
	for _, s := range m.specs {
		if s.Name == name {
			m.values[name] = metricValue{Value: v, Unit: s.Unit}
			return
		}
	}
	panic(fmt.Sprintf("perfbench: metric %q is not in this run's table", name))
}

// setPct sets a percentile metric only when at least ten samples lie
// beyond it; otherwise the metric stays unset and complete reports it.
func (m *metrics) setPct(name string, xs []float64, q float64) {
	if v, ok := percentile(xs, q); ok {
		m.set(name, v)
	}
}

// complete returns an error naming every metric of the table the run
// did not set.
func (m *metrics) complete() error {
	var missing []string
	for _, s := range m.specs {
		if _, ok := m.values[s.Name]; !ok {
			missing = append(missing, s.Name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("metrics not measured (too few samples or a benchmark bug): %v", missing)
	}
	return nil
}

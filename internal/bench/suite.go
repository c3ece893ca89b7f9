// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (Kimmig et al. §5) on the
// synthetic data collections of internal/datasets.
//
// Each experiment is a method on Suite (Table1, Fig3, ..., Table3)
// returning a typed result that both carries the raw numbers and renders
// the paper-style table via its Print method. The cmd/sgebench tool and
// the repository-root benchmarks call these methods.
//
// Because the original testbed was a 16-core Xeon and this library runs
// wherever the user runs it, every speedup table reports two numbers:
//
//	wall  — measured wall-clock speedup (meaningless when the host has
//	        fewer cores than workers);
//	work  — the work-division speedup totalStates/maxPerWorkerStates,
//	        a hardware-independent upper bound on achievable speedup
//	        that reproduces the paper's *shape* (load balance) even on
//	        a single-core host.
package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"parsge/internal/datasets"
	"parsge/internal/domain"
	"parsge/internal/order"
	"parsge/internal/parallel"
	"parsge/internal/ri"
	"parsge/internal/stats"
	"parsge/internal/vf2"
)

// Suite configures a harness run.
type Suite struct {
	// Ctx is the parent context of every measured run; cancelling it
	// (e.g. on SIGINT in cmd/sgebench) aborts the experiment promptly.
	// nil means context.Background().
	Ctx context.Context
	// Scale is the dataset scale factor (1.0 = paper sizes). The
	// default used by tests and benchmarks is small enough for a
	// laptop; cmd/sgebench exposes it as a flag.
	Scale float64
	// Seed drives dataset generation and scheduling.
	Seed int64
	// Timeout is the per-instance budget (paper: 180 s).
	Timeout time.Duration
	// LongThreshold splits instances into short and long running (the
	// paper splits at 1 s on full-size data). Scaled-down data needs a
	// proportionally smaller threshold.
	LongThreshold time.Duration
	// Workers is the worker-count sweep (paper: 1, 2, 4, 8, 16).
	Workers []int
	// MaxInstances caps how many instances each experiment touches
	// (0 = all generated instances).
	MaxInstances int
	// Out receives the printed tables (nil = discard).
	Out io.Writer
	// CSVDir, when non-empty, additionally writes each experiment's data
	// as a CSV file into this directory (created if needed).
	CSVDir string

	collections map[string]*datasets.Collection
}

// Defaults fills zero fields with the harness defaults.
func (s *Suite) Defaults() *Suite {
	if s.Scale <= 0 {
		s.Scale = 0.02
	}
	if s.Seed == 0 {
		s.Seed = 20170525 // arXiv date of the paper
	}
	if s.Timeout <= 0 {
		s.Timeout = 10 * time.Second
	}
	if s.LongThreshold <= 0 {
		s.LongThreshold = 30 * time.Millisecond
	}
	if len(s.Workers) == 0 {
		s.Workers = []int{1, 2, 4, 8, 16}
	}
	if s.MaxInstances == 0 {
		s.MaxInstances = 48
	}
	return s
}

// printf writes to Out when set.
func (s *Suite) printf(format string, args ...any) {
	if s.Out != nil {
		fmt.Fprintf(s.Out, format, args...)
	}
}

// collection memoizes dataset generation per suite.
func (s *Suite) collection(name string) *datasets.Collection {
	if s.collections == nil {
		s.collections = make(map[string]*datasets.Collection)
	}
	if c, ok := s.collections[name]; ok {
		return c
	}
	c, err := datasets.ByName(name, datasets.Config{Scale: s.Scale, Seed: s.Seed})
	if err != nil {
		panic(err) // names are internal constants
	}
	s.collections[name] = c
	return c
}

// instances returns up to MaxInstances instances of a collection.
func (s *Suite) instances(name string) []datasets.Instance {
	insts := s.collection(name).Instances()
	if s.MaxInstances > 0 && len(insts) > s.MaxInstances {
		insts = insts[:s.MaxInstances]
	}
	return insts
}

// Record is one measured run of one instance.
type Record struct {
	Instance datasets.Instance
	Workers  int
	Matches  int64
	States   int64
	// PerWorkerStates is nil for sequential runs.
	PerWorkerStates []int64
	Steals          int64
	Preproc         time.Duration
	Match           time.Duration
	TimedOut        bool
	// Allocs is the number of heap allocations during the match phase,
	// measured only on the sequential RI path (where preprocessing is
	// cleanly separated from the search); 0 elsewhere. The kernel
	// acceptance test pins bitset ≤ slice on this number.
	Allocs int64
}

// Total returns preprocessing plus match time.
func (r Record) Total() time.Duration { return r.Preproc + r.Match }

// WorkSpeedup returns totalStates/maxPerWorkerStates — the
// hardware-independent load-balance speedup bound.
func (r Record) WorkSpeedup() float64 {
	if len(r.PerWorkerStates) == 0 {
		return 1
	}
	var max, sum int64
	for _, s := range r.PerWorkerStates {
		sum += s
		if s > max {
			max = s
		}
	}
	if max == 0 {
		return 1
	}
	return float64(sum) / float64(max)
}

// runConfig selects engine and scheduling for runInstance.
type runConfig struct {
	variant  ri.Variant
	workers  int
	group    int
	stealing bool
	// eagerCopy reproduces the per-task state copying of the Cilk++ VF2
	// parallelization; combined with workers == 1 it is the harness's
	// stand-in for the original RI 3.6 / RI-DS 3.51 binaries (see
	// DESIGN.md, substitutions).
	eagerCopy bool
	// frontSteal services steals from the deep end of the deque
	// (ablation of §3.2(ii)).
	frontSteal bool
	// senderInitiated switches to dealing (ablation of §3.2's choice).
	senderInitiated bool
	// noInitDist seeds all root tasks on worker 0 (ablation of §3.3).
	noInitDist bool
	// dom is the domain preprocessing configuration: the filter knobs
	// (ablations of the arc-consistency depth and the pruning
	// subsystem), the matching semantics (zero value: the paper's
	// subgraph isomorphism) and the kernel (the kernel ablation pins
	// KernelBitset vs KernelSlice). Its Schedule is set by autoSchedule.
	dom domain.Options
	// autoSchedule opts into the adaptive filter scheduler. The zero
	// value pins domain.ScheduleFixed so every other ablation isolates
	// exactly the knobs it sets; AblationAdaptiveSchedule measures Auto
	// against the Fixed configurations.
	autoSchedule bool
	// vf2 measures the VF2 engine instead of the RI family;
	// vf2SkipDomains restores its classic domain-free baseline
	// (ablation of wiring the pruning subsystem into VF2).
	vf2            bool
	vf2SkipDomains bool
	// orderStrategy overrides the node-ordering rule (ablation).
	orderStrategy order.Strategy
	seed          int64
}

// runInstance measures one instance under one configuration.
func (s *Suite) runInstance(inst datasets.Instance, cfg runConfig) Record {
	rec := Record{Instance: inst, Workers: cfg.workers}

	parent := s.Ctx
	if parent == nil {
		parent = context.Background() //sgelint:ignore ctxbackground bench harness default when Suite.Ctx is unset; cmd/sgebench passes a SIGINT-bound ctx
	}
	ctx, cancel := context.WithTimeout(parent, s.Timeout)
	defer cancel()

	dom := cfg.dom
	dom.Schedule = domain.ScheduleFixed
	if cfg.autoSchedule {
		dom.Schedule = domain.ScheduleAuto
	}

	if cfg.vf2 {
		res := vf2.Enumerate(inst.Pattern, inst.Target, vf2.Options{
			Ctx:         ctx,
			SkipDomains: cfg.vf2SkipDomains,
			Domain:      dom,
		})
		rec.Matches = res.Matches
		rec.States = res.States
		rec.Preproc = res.PreprocTime
		rec.Match = res.MatchTime
		rec.TimedOut = res.Aborted
		return rec
	}

	prep, err := ri.Prepare(inst.Pattern, inst.Target, ri.Options{
		Variant:       cfg.variant,
		Domain:        dom,
		OrderStrategy: cfg.orderStrategy,
	})
	if err != nil {
		panic(err) // harness-internal configurations are always valid
	}

	if cfg.workers <= 1 && !cfg.eagerCopy {
		// Bracket the search with allocation counters: Prepare already
		// ran, so the delta is the match phase alone (the allocs/op story
		// of the kernel ablation). The harness is single-goroutine here,
		// so no concurrent allocations pollute the reading.
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res := prep.Run(ri.RunOptions{Ctx: ctx})
		runtime.ReadMemStats(&m1)
		rec.Allocs = int64(m1.Mallocs - m0.Mallocs)
		rec.Matches = res.Matches
		rec.States = res.States
		rec.Preproc = res.PreprocTime
		rec.Match = res.MatchTime
		rec.TimedOut = res.Aborted
		return rec
	}

	group := cfg.group
	if group == 0 {
		group = parallel.DefaultGroupSize
	}
	res := parallel.Enumerate(prep, parallel.Options{
		Workers:               cfg.workers,
		TaskGroupSize:         group,
		DisableStealing:       !cfg.stealing,
		EagerCopy:             cfg.eagerCopy,
		StealFromFront:        cfg.frontSteal,
		SenderInitiated:       cfg.senderInitiated,
		NoInitialDistribution: cfg.noInitDist,
		Ctx:                   ctx,
		Seed:                  cfg.seed,
	})
	rec.Matches = res.Matches
	rec.States = res.States
	rec.PerWorkerStates = res.PerWorkerStates
	rec.Steals = res.Steals
	rec.Preproc = res.PreprocTime
	rec.Match = res.MatchTime
	rec.TimedOut = res.Aborted
	return rec
}

// runAll measures every instance under a configuration.
func (s *Suite) runAll(insts []datasets.Instance, cfg runConfig) []Record {
	out := make([]Record, len(insts))
	for i, inst := range insts {
		out[i] = s.runInstance(inst, cfg)
	}
	return out
}

// matchTimes extracts match times in order.
func matchTimes(recs []Record) []time.Duration {
	out := make([]time.Duration, len(recs))
	for i, r := range recs {
		out[i] = r.Match
	}
	return out
}

// totalTimes extracts total (preproc+match) times in order.
func totalTimes(recs []Record) []time.Duration {
	out := make([]time.Duration, len(recs))
	for i, r := range recs {
		out[i] = r.Total()
	}
	return out
}

// meanSeconds averages a duration slice in seconds.
func meanSeconds(ds []time.Duration) float64 {
	return stats.Mean(stats.Durations(ds))
}

// meanStates averages the search space size.
func meanStates(recs []Record) float64 {
	xs := make([]float64, len(recs))
	for i, r := range recs {
		xs[i] = float64(r.States)
	}
	return stats.Mean(xs)
}

// meanSteals averages steal counts.
func meanSteals(recs []Record) float64 {
	xs := make([]float64, len(recs))
	for i, r := range recs {
		xs[i] = float64(r.Steals)
	}
	return stats.Mean(xs)
}

// countTimeouts counts timed-out records.
func countTimeouts(recs []Record) int {
	n := 0
	for _, r := range recs {
		if r.TimedOut {
			n++
		}
	}
	return n
}

// selectRecords picks records by index.
func selectRecords(recs []Record, idx []int) []Record {
	out := make([]Record, len(idx))
	for i, j := range idx {
		out[i] = recs[j]
	}
	return out
}

// hardestInstances runs a cheap reference pass (RI-DS, 1 worker) and
// returns the k instances with the largest search spaces — the harness's
// notion of the paper's "sample of long running instances".
func (s *Suite) hardestInstances(name string, k int) []datasets.Instance {
	insts := s.instances(name)
	ref := s.runAll(insts, runConfig{variant: ri.VariantRIDS, workers: 1})
	idx := make([]int, len(insts))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return ref[idx[a]].States > ref[idx[b]].States })
	if k > len(idx) {
		k = len(idx)
	}
	out := make([]datasets.Instance, k)
	for i := 0; i < k; i++ {
		out[i] = insts[idx[i]]
	}
	return out
}

// splitByReference partitions records of a sweep by the reference
// configuration's total time against LongThreshold, mirroring the
// paper's short (<1 s) / long (≥1 s) split.
func (s *Suite) splitByReference(ref []Record) (short, long []int) {
	return stats.SplitShortLong(totalTimes(ref), s.LongThreshold)
}

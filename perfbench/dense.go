package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"parsge"
	"parsge/internal/datasets"
)

// The solve-dense workload: the paper instances of PPIS32 and
// GRAEMLIN32 under subgraph and induced isomorphism, solved one at a
// time through Target.Enumerate with Algorithm Auto and one worker, pass
// after pass. --seed orders the instances; the corpus is fixed (see
// corpusSeed). One worker, because the gated metric is CPU time: with
// more, an idle thief spins while its victim's thread waits for the
// host, and the spin's CPU time follows the host's load. The steal
// engine at nproc workers is measured in the traced run's layer pass.

// denseQueryBudget bounds one instance; a timeout is a failure.
const denseQueryBudget = 10 * time.Second

// denseChunk is how many instances run between two calibrations: about
// a quarter of a second on a quiet 2-CPU Xeon virtual machine.
const denseChunk = 42

var denseSems = []parsge.Semantics{parsge.SubgraphIso, parsge.InducedIso}

type denseInst struct {
	tgt     int
	pattern *parsge.Graph
	text    string
	sem     parsge.Semantics
	ref     int64
}

type denseState struct {
	graphs  []*parsge.Graph
	targets []*parsge.Target // solved against
	twins   []*parsge.Target // references and direct per-layer calls
	insts   []denseInst
}

func setupDense(ctx context.Context, cfg config) (*denseState, error) {
	st := &denseState{}
	for _, name := range []string{"PPIS32", "GRAEMLIN32"} {
		c, err := datasets.ByName(name, datasets.Config{Scale: cfg.Scale, Seed: corpusSeed, NumPatterns: cfg.Patterns})
		if err != nil {
			return nil, err
		}
		base := len(st.graphs)
		for _, g := range c.Targets {
			tgt, err := parsge.NewTarget(g, parsge.TargetOptions{})
			if err != nil {
				return nil, err
			}
			twin, err := parsge.NewTarget(g, parsge.TargetOptions{})
			if err != nil {
				return nil, err
			}
			st.graphs = append(st.graphs, g)
			st.targets = append(st.targets, tgt)
			st.twins = append(st.twins, twin)
		}
		table := decimalTable(c.Targets)
		for _, p := range c.Patterns {
			text, err := patternText(p.Name, p.Graph, table)
			if err != nil {
				return nil, err
			}
			for _, sem := range denseSems {
				st.insts = append(st.insts, denseInst{tgt: base + p.TargetIndex, pattern: p.Graph, text: text, sem: sem})
			}
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	rng.Shuffle(len(st.insts), func(i, j int) { st.insts[i], st.insts[j] = st.insts[j], st.insts[i] })
	for i := range st.insts {
		in := &st.insts[i]
		r, err := st.twins[in.tgt].Enumerate(ctx, in.pattern, parsge.Options{
			Algorithm: parsge.Auto, Workers: 1, Semantics: in.sem, Timeout: denseQueryBudget,
		})
		if err != nil {
			return nil, err
		}
		if r.TimedOut {
			return nil, fmt.Errorf("solve-dense instance %d: %w", i, errTimedOut)
		}
		in.ref = r.Matches
	}
	if !cfg.Trace {
		st.twins = nil // only the traced layer pass calls them again
	}
	return st, nil
}

// solve runs instance i once on the solved targets, accounts it, and
// returns its latency.
func (st *denseState) solve(ctx context.Context, e *env, i int, t *tally) time.Duration {
	in := &st.insts[i]
	var r parsge.Result
	var err error
	d := e.tr.timed("search.enumerate", int64(i), -1, func() {
		r, err = st.targets[in.tgt].Enumerate(ctx, in.pattern, parsge.Options{
			Algorithm: parsge.Auto, Workers: 1, Semantics: in.sem, Timeout: denseQueryBudget,
		})
	})
	switch {
	case err != nil || r.TimedOut:
		t.add(outError)
	case r.Matches != in.ref:
		e.wrongf("solve-dense instance %d: %d matches, reference %d", i, r.Matches, in.ref)
		t.add(outWrong)
	default:
		t.add(outOK)
	}
	return d
}

// closedPhase solves the instance list pass after pass until the budget
// is spent. It returns each pass's process CPU ms per solved instance
// and every call's latency.
func (st *denseState) closedPhase(ctx context.Context, e *env, name string) (opCPU, lats []float64) {
	settle()
	t := e.phase(name)
	start := time.Now()
	budget := time.Duration(e.cfg.Seconds * float64(time.Second))
	for len(opCPU) == 0 || time.Since(start) < budget {
		ok := t.OK
		cpu := e.chunkedCPU(len(st.insts), denseChunk, func(from, to int) {
			for i := from; i < to; i++ {
				lats = append(lats, ms(st.solve(ctx, e, i, t)))
			}
		})
		opCPU = append(opCPU, ratio(cpu, float64(t.OK-ok)))
	}
	t.Seconds = time.Since(start).Seconds()
	t.QPS = float64(t.OK) / t.Seconds
	t.PassOpCPUMS = opCPU
	t.tails(lats, nil)
	return opCPU, lats
}

func runDense(ctx context.Context, e *env) error {
	st, setupS, err := repeatSetup(e, func() (*denseState, error) { return setupDense(ctx, e.cfg) }, func(*denseState) {})
	if err != nil {
		return err
	}
	opCPU, lats := st.closedPhase(ctx, e, "closed")

	m := e.e2e
	m.set("setup_s", setupS*e.speed())
	m.set("op_cpu_ms", median(opCPU)*e.speed())
	m.set("served_frac", servedFrac(e.phases))
	m.set("heap_mb", heapMB())
	if !e.cfg.Trace {
		return nil
	}

	e.tr = newTracer()
	_, traced := st.closedPhase(ctx, e, "traced")
	l := e.layer
	l.set("harness.trace_overhead", ratio(median(traced), median(lats)))

	reqs := make([]layerReq, len(st.insts))
	for i, in := range st.insts {
		reqs[i] = layerReq{text: in.text, twin: st.twins[in.tgt], sem: in.sem, ref: in.ref}
	}
	if _, err := layerPass(ctx, e, reqs, decimalTable(st.graphs)); err != nil {
		return err
	}

	// Plan-recording runs per query on the solved targets, and the cost
	// of reading their statistics the way an operator would.
	var planned, queries, buckets float64
	for _, tgt := range st.targets {
		s := tgt.Stats()
		planned += float64(s.Plans.Planned)
		queries += float64(s.Queries)
		buckets += float64(len(s.Plans.Buckets))
	}
	l.set("domain.runs_per_miss", ratio(planned, queries))
	l.set("stats.plan_buckets", buckets)
	var scrapes []float64
	for i := 0; i < statsScrapes; i++ {
		start := time.Now()
		for _, tgt := range st.targets {
			_ = tgt.Stats()
		}
		scrapes = append(scrapes, ms(time.Since(start)))
	}
	l.setPct("stats.scrape_ms", scrapes, 0.5)

	// The service, HTTP and update layers are off this workload's path.
	for _, name := range []string{
		"cache.hit_ratio", "cache.evictions", "singleflight.shared",
		"admission.wait_ms", "admission.wait_p99_ms", "admission.shed_frac",
		"costmodel.mispredict", "costmodel.false_shed", "service.self_ms", "http.self_ms",
		"update.apply_p50_ms", "update.apply_p99_ms", "update.refill_misses", "harness.gen_lag_ms",
	} {
		l.set(name, 0)
	}
	return e.tr.write(e.cfg.Spans)
}

// servedFrac is the share of attempted operations that succeeded.
func servedFrac(phases []*tally) float64 {
	var ok, sent int64
	for _, t := range phases {
		ok += t.OK
		sent += t.Sent
	}
	return ratio(float64(ok), float64(sent))
}

package main

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"time"

	"parsge"
	"parsge/internal/datasets"
	"parsge/internal/graph"
)

// The serve-cold-sparse workload: every PDBSv1 target behind one
// router, each request one paper pattern under one of the three
// semantics against its own target, counted. Every phase starts on a
// fresh server, so every request misses the cache except canonical
// duplicates and the work is the service's preparation, admission and
// a microsecond-scale search.

// coldPassSecs is about how long one closed-loop pass over the request
// list takes on a 2-CPU Xeon virtual machine.
const coldPassSecs = 4.2

// coldChunk is how many requests run between two calibrations, about
// half a second's worth on the same machine.
const coldChunk = 330

func setupCold(ctx context.Context, e *env) (*serveState, error) {
	col := datasets.PDBSv1(datasets.Config{Scale: e.cfg.Scale, Seed: corpusSeed, NumPatterns: e.cfg.Patterns})
	c := newCorpus(col.Targets)
	fixed := rand.New(rand.NewSource(corpusSeed))
	for _, g := range col.Targets {
		twin, err := parsge.NewTarget(g, parsge.TargetOptions{})
		if err != nil {
			return nil, err
		}
		c.versions = append(c.versions, []*parsge.Target{twin})
		c.edges = append(c.edges, pickEdges(fixed, g, updateEdges))
	}
	for _, p := range col.Patterns {
		text, err := patternText(p.Name, p.Graph, c.table)
		if err != nil {
			return nil, err
		}
		for _, sm := range serveSems {
			r, err := reference(ctx, c.versions[p.TargetIndex][0], p.Graph, sm.sem)
			if err != nil {
				return nil, err
			}
			req := serveReq{target: p.TargetIndex, sem: sm.sem, text: text, pattern: p.Graph, refs: []int64{r.Matches}, unsat: r.Unsatisfiable}
			if err := c.addReq(req, sm.name); err != nil {
				return nil, err
			}
		}
	}
	if !e.cfg.Trace {
		c.versions = nil // only the traced run calls them again
	}
	s, err := newSession(e, c)
	if err != nil {
		return nil, err
	}
	return &serveState{c: c, s: s}, nil
}

func runCold(ctx context.Context, e *env) error {
	st, setupS, err := repeatSetup(e, func() (*serveState, error) { return setupCold(ctx, e) }, func(st *serveState) { st.s.close() })
	if err != nil {
		return err
	}
	c := st.c
	// Targets past the dense-row limit run on the slice kernel.
	var sliceTargets, sliceReqs int
	for _, g := range c.graphs {
		if g.NumNodes() > graph.DenseRowLimit {
			sliceTargets++
		}
	}
	for _, r := range c.reqs {
		if c.graphs[r.target].NumNodes() > graph.DenseRowLimit {
			sliceReqs++
		}
	}
	e.info(map[string]any{"corpus": map[string]int{
		"targets": len(c.graphs), "requests": len(c.reqs),
		"slice_kernel_targets": sliceTargets, "slice_kernel_requests": sliceReqs,
	}})
	rng := rand.New(rand.NewSource(e.cfg.Seed))
	list := make([]op, len(c.reqs))
	for i, r := range c.reqs {
		list[i] = op{kind: opQuery, mode: modeCount, target: int32(r.target), req: int32(i)}
	}
	shuffled := func() []op {
		ops := slices.Clone(list)
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		return ops
	}

	// The run is a number of rounds. Each is a closed-loop pass over the
	// list in its own order on a fresh server, then the next segment of
	// one open-loop pass over the list at the fixed rate, on a server of
	// its own that lives through the rounds. Spreading the open loop over
	// the run keeps a stall of a few seconds on a shared host from
	// slowing all of it. The round count follows from --seconds and
	// coldPassSecs, not from a clock, so that every run of a given length
	// serves the same mix of phases and served_frac does not move with
	// the host's speed.
	openOps := shuffled()
	openSecs := float64(len(openOps)) / e.cfg.OpenRate
	rounds := max(1, int(math.Round((e.cfg.Seconds-openSecs)/coldPassSecs)))
	s, err := newSession(e, c) // the open loop's server
	if err != nil {
		st.s.close()
		return err
	}
	closed := e.phase("closed")
	var opCPU []float64
	var tp openLoop
	for k := 0; k < rounds; k++ {
		sc := st.s
		if k > 0 {
			if sc, err = newSession(e, c); err != nil {
				s.close()
				return err
			}
		}
		settle()
		ops := shuffled()
		var res []result
		var d time.Duration
		cpu := e.chunkedCPU(len(ops), coldChunk, func(from, to int) {
			r, dd := sc.closed(ctx, ops[from:to])
			res, d = append(res, r...), d+dd
		})
		opCPU = append(opCPU, ratio(cpu, float64(okCount(res))))
		sc.close()
		e.account(closed, res, d.Seconds())
		e.checkUnsat(c, res)

		from, to := k*len(openOps)/rounds, (k+1)*len(openOps)/rounds
		tp.segment(ctx, e, s, openOps, from, to-from, false)
	}
	closed.QPS = float64(closed.OK) / closed.Seconds
	closed.PassOpCPUMS = opCPU
	open := e.phase("open")
	open.GenLagP99MS = reported(tp.lags, 0.99)
	lats, _ := e.account(open, tp.res, tp.secs)
	e.checkUnsat(c, tp.res)
	open.tails(lats, nil)
	heap := heapMB()
	s.close()

	m := e.e2e
	m.set("setup_s", setupS*e.speed())
	m.set("op_cpu_ms", median(opCPU)*e.speed())
	m.set("served_frac", servedFrac(e.phases))
	m.set("heap_mb", heap)
	if !e.cfg.Trace {
		return nil
	}

	e.tr = newTracer()
	lt, err := layerPass(ctx, e, c.layerReqs(), c.table)
	if err != nil {
		return err
	}
	if s, err = newSession(e, c); err != nil {
		return err
	}
	tp = openLoop{}
	tp.segment(ctx, e, s, openOps, 0, len(openOps), true)
	_, err = e.tracedServe(ctx, s, tp, median(lats), lt)
	s.close()
	if err != nil {
		return err
	}
	// No updates on this workload.
	e.layer.set("update.apply_p50_ms", 0)
	e.layer.set("update.apply_p99_ms", 0)
	return e.tr.write(e.cfg.Spans)
}

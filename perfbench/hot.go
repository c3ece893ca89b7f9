package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"parsge"
	"parsge/internal/datasets"
	"parsge/internal/testutil"
)

// The serve-hot-mutating workload: every PPIS32 target behind one
// router, a small pool of extracted patterns per target under the three
// semantics, mostly counts with a share of mappings and streams. The
// pool and the mix are drawn as sgebench -loadgen draws them: uncapped
// 3–6-node extractions, one request in 16 a stream and one in 8 of the
// rest asking for mappings. Request-list slots take the targets
// round-robin. Every 20th slot is a
// one-edge update of its target and every 500th an operator's GET
// /stats, at fixed positions so their counts do not depend on
// throughput; with PPIS32's ten targets every update lands on the same
// target. Reads of the other targets are cache hits; each update
// invalidates the mutating target's entries and starts a new epoch, so
// the engines appear only on its refills.

const (
	hotUpdateEvery = 20
	hotScrapeEvery = 500
)

func setupHot(ctx context.Context, e *env) (*serveState, error) {
	col := datasets.PPIS32(datasets.Config{Scale: e.cfg.Scale, Seed: corpusSeed})
	c := newCorpus(col.Targets)
	fixed := rand.New(rand.NewSource(corpusSeed))
	for t, g := range col.Targets {
		twin, err := parsge.NewTarget(g, parsge.TargetOptions{})
		if err != nil {
			return nil, err
		}
		edges := pickEdges(fixed, g, updateEdges)
		c.edges = append(c.edges, edges)
		// One twin per graph version: the base and the base plus each
		// update edge.
		versions := []*parsge.Target{twin}
		for k := range edges {
			vg, _, _, _, err := g.ApplyUpdates(updateBatch(edges, 2*k))
			if err != nil {
				return nil, err
			}
			vt, err := parsge.NewTarget(vg, parsge.TargetOptions{})
			if err != nil {
				return nil, err
			}
			versions = append(versions, vt)
		}
		c.versions = append(c.versions, versions)
		if err := addPool(ctx, e.cfg, fixed, c, t, versions); err != nil {
			return nil, err
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

// addPool extracts cfg.Pool patterns of 3–6 nodes from target t and
// adds them under each semantics with their per-version references.
func addPool(ctx context.Context, cfg config, rng *rand.Rand, c *serveCorpus, t int, versions []*parsge.Target) error {
	g := c.graphs[t]
	for added := 0; added < cfg.Pool; {
		p := testutil.ExtractPattern(rng, g, 3+rng.Intn(4))
		if p.NumNodes() == 0 {
			continue
		}
		text, err := patternText(fmt.Sprintf("t%d-p%d", t, added), p, c.table)
		if err != nil {
			return err
		}
		for _, sm := range serveSems {
			req := serveReq{target: t, sem: sm.sem, text: text, pattern: p}
			for v, vt := range versions {
				r, err := reference(ctx, vt, p, sm.sem)
				if err != nil {
					return err
				}
				req.refs = append(req.refs, r.Matches)
				if v == 0 {
					req.unsat = r.Unsatisfiable
				}
			}
			if err := c.addReq(req, sm.name); err != nil {
				return err
			}
		}
		added++
	}
	return nil
}

// hotOps draws the fixed request list.
func hotOps(c *serveCorpus, n int, rng *rand.Rand) []op {
	byTarget := make([][]int32, len(c.graphs))
	for i, r := range c.reqs {
		byTarget[r.target] = append(byTarget[r.target], int32(i))
	}
	ops := make([]op, n)
	for i := range ops {
		t := i % len(c.graphs)
		switch {
		case i%hotUpdateEvery == hotUpdateEvery-1:
			ops[i] = op{kind: opUpdate, target: int32(t)}
		case i%hotScrapeEvery == hotScrapeEvery/2:
			ops[i] = op{kind: opScrape}
		default:
			m := modeCount
			if rng.Intn(16) == 0 {
				m = modeStream
			} else if rng.Intn(8) == 0 {
				m = modeMappings
			}
			pool := byTarget[t]
			ops[i] = op{kind: opQuery, mode: m, target: int32(t), req: pool[rng.Intn(len(pool))]}
		}
	}
	return ops
}

func runHot(ctx context.Context, e *env) error {
	st, setupS, err := repeatSetup(e, func() (*serveState, error) { return setupHot(ctx, e) }, func(st *serveState) { st.s.close() })
	if err != nil {
		return err
	}
	c, s := st.c, st.s
	defer func() {
		if s != nil {
			s.close()
		}
	}()
	ops := hotOps(c, e.cfg.ListLen, rand.New(rand.NewSource(e.cfg.Seed)))
	n := int(e.cfg.OpenShare * e.cfg.Seconds * e.cfg.OpenRate)
	opCPU, tp := hotRounds(ctx, e, s, ops, n, false)
	open := e.phase("open")
	open.GenLagP99MS = reported(tp.lags, 0.99)
	lats, updLats := e.account(open, tp.res, tp.secs)
	open.tails(lats, updLats)

	m := e.e2e
	m.set("setup_s", setupS*e.speed())
	m.set("op_cpu_ms", median(opCPU)*e.speed())
	m.set("served_frac", servedFrac(e.phases))
	m.set("heap_mb", heapMB())
	if !e.cfg.Trace {
		return nil
	}

	e.tr = newTracer()
	lt, err := layerPass(ctx, e, c.layerReqs(), c.table)
	if err != nil {
		return err
	}
	// The traced rounds run as the untraced ones did, on a fresh server.
	s.close()
	if s, err = newSession(e, c); err != nil {
		return err
	}
	_, tp = hotRounds(ctx, e, s, ops, n, true)
	apply, err := e.tracedServe(ctx, s, tp, median(lats), lt)
	if err != nil {
		return err
	}
	e.layer.setPct("update.apply_p50_ms", apply, 0.5)
	e.layer.setPct("update.apply_p99_ms", apply, 0.99)
	return e.tr.write(e.cfg.Spans)
}

// hotRounds warms the caches with one untimed pass over ops, then runs
// cfg.Passes rounds, each a timed closed-loop pass followed by the next
// n/cfg.Passes requests of an n-request open loop. It returns each
// pass's process CPU ms per successful operation and the open loop, its
// results in request-id order. Spreading the closed passes over the run keeps a
// stall of a few seconds on a shared host from slowing all of them. The
// counts are fixed, not a time budget: the server's state grows with
// every epoch, so each pass and segment must start from the same number
// of updates whatever the throughput. With trace set, e.tr records the
// open-loop segments.
func hotRounds(ctx context.Context, e *env, s *session, ops []op, n int, trace bool) (opCPU []float64, tp openLoop) {
	res, d := s.closed(ctx, ops)
	e.account(e.phase("warm"), res, d.Seconds())
	e.checkUnsat(s.c, res)
	closed := e.phase("closed")
	for k := range e.cfg.Passes {
		settle()
		var res []result
		var d time.Duration
		cpu := e.chunkedCPU(len(ops), len(ops), func(from, to int) { res, d = s.closed(ctx, ops[from:to]) })
		opCPU = append(opCPU, ratio(cpu, float64(okCount(res))))
		e.account(closed, res, d.Seconds())
		from, to := k*n/e.cfg.Passes, (k+1)*n/e.cfg.Passes
		tp.segment(ctx, e, s, ops, from, to-from, trace)
	}
	closed.QPS = float64(closed.OK) / closed.Seconds
	closed.PassOpCPUMS = opCPU
	return opCPU, tp
}

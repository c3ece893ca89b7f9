package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"parsge"
	"parsge/internal/graphio"
)

// layerReq is one distinct request the traced run replays layer by
// layer against a twin Target: a Target built from the same graph at
// the same epoch as the served one, so these direct calls feed neither
// the served target's plan histogram nor the service's cost model.
type layerReq struct {
	text string // the pattern as sent, a GFF section
	twin *parsge.Target
	sem  parsge.Semantics
	ref  int64
}

// layerTimes are one request's direct-call times in ms.
type layerTimes struct {
	parse, canon, estimate float64
}

// layerPass calls each layer's public function once per request, in
// order — parse, canonicalise, estimate, a sequential run and a
// parallel run — each inside its own span, and sets the graphio, canon,
// domain, search and steal metrics. It returns the per-request times
// the service self-time subtracts.
func layerPass(ctx context.Context, e *env, reqs []layerReq, table *graphio.LabelTable) ([]layerTimes, error) {
	l := e.layer
	out := make([]layerTimes, len(reqs))
	var parse, canon []float64
	var estimate, preproc, unary, ac, inducedAC time.Duration
	var finalSize, states, matches, mallocs, steals, parStates, maxWorker float64
	var match, seqWall, parWall time.Duration
	var ms0, ms1 runtime.MemStats
	for i, rq := range reqs {
		req := int64(i)
		root := e.tr.begin("layers", req, -1)
		var gs []parsge.NamedGraph
		var err error
		pd := e.tr.timed("graphio.parse", req, root, func() {
			gs, err = parsge.ReadGraphs(strings.NewReader(rq.text), table)
		})
		if err != nil || len(gs) != 1 {
			return nil, fmt.Errorf("parsing request %d: %v", i, err)
		}
		p := gs[0].Graph
		cd := e.tr.timed("canon", req, root, func() { parsge.CanonicalPattern(p) })

		opts := parsge.Options{Algorithm: parsge.Auto, Semantics: rq.sem}
		var est parsge.CostEstimate
		ed := e.tr.timed("domain.estimate", req, root, func() { est, err = rq.twin.EstimateCost(ctx, p, opts) })
		if err != nil {
			return nil, err
		}
		estimate += est.PreprocTime

		var seq, par parsge.Result
		var seqErr, parErr error
		opts.Workers = 1
		runtime.ReadMemStats(&ms0)
		seqWall += e.tr.timed("search.seq", req, root, func() { seq, seqErr = rq.twin.Enumerate(ctx, p, opts) })
		runtime.ReadMemStats(&ms1)
		opts.Workers = e.nproc
		parWall += e.tr.timed("steal.par", req, root, func() { par, parErr = rq.twin.Enumerate(ctx, p, opts) })
		e.tr.finish(root)
		if seqErr != nil || parErr != nil {
			return nil, fmt.Errorf("request %d: %v %v", i, seqErr, parErr)
		}
		if seq.TimedOut || par.TimedOut {
			return nil, fmt.Errorf("request %d: %w", i, errTimedOut)
		}
		if seq.Matches != rq.ref || par.Matches != rq.ref {
			e.wrongf("layer pass request %d: %d sequential and %d parallel matches, reference %d", i, seq.Matches, par.Matches, rq.ref)
		}

		out[i] = layerTimes{parse: ms(pd), canon: ms(cd), estimate: ms(ed)}
		parse = append(parse, ms(pd)*1000)
		canon = append(canon, ms(cd)*1000)
		preproc += seq.PreprocTime
		match += seq.MatchTime
		states += float64(seq.States)
		matches += float64(seq.Matches)
		mallocs += float64(ms1.Mallocs - ms0.Mallocs)
		if pl := seq.Plan; pl != nil {
			unary += pl.UnaryTime
			ac += pl.ACTime
			inducedAC += pl.InducedACTime
			finalSize += float64(pl.DomainFinal)
		}
		steals += float64(par.Steals)
		if len(par.PerWorkerStates) > 0 {
			parStates += float64(par.States)
			top := int64(0)
			for _, s := range par.PerWorkerStates {
				top = max(top, s)
			}
			maxWorker += float64(top)
		}
	}
	l.setPct("graphio.parse_us", parse, 0.5)
	l.setPct("canon.us", canon, 0.5)
	l.set("domain.estimate_ms", ms(estimate))
	l.set("domain.preproc_ms", ms(preproc))
	l.set("domain.unary_ms", ms(unary))
	l.set("domain.ac_ms", ms(ac))
	l.set("domain.induced_ac_ms", ms(inducedAC))
	l.set("domain.final_size", finalSize)
	l.set("search.states", states)
	l.set("search.states_per_s", ratio(states, match.Seconds()))
	l.set("search.match_ms", ms(match))
	l.set("search.allocs_per_match", ratio(mallocs, matches))
	l.set("steal.steals", steals)
	l.set("steal.work_speedup", ratio(parStates, maxWorker))
	l.set("steal.wall_speedup", ratio(seqWall.Seconds(), parWall.Seconds()))
	return out, nil
}

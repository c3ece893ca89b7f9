package bench

// The admission ablation measures the cost-model admission path against
// the static pattern-size heuristic it replaced, on a workload that
// mixes ordinary collection queries with deliberately explosive star
// probes (max-degree hub plus its neighborhood, matched under
// homomorphism). The static heuristic burns the full query timeout on
// every explosive probe; the cost model pays at most one truncated run
// per plan before its truncated-cost floor predicts the explosion and
// sheds the rest with ErrPredictedExplosive. The same workload is
// replayed twice against each service so the second pass shows the
// misprediction feedback loop: EWMA history reclassifies queries the
// domain-size score got wrong on the first pass.

import (
	"context"
	"errors"
	"strconv"
	"time"

	"parsge"
	"parsge/internal/graph"
	"parsge/internal/service"
)

// AdmissionRowName names one admission-ablation configuration; the
// acceptance tests parse rows back by these names. Configurations are
// "static heuristic pass N" and "cost model pass N".
func AdmissionRowName(collection, config string) string {
	return collection + "/" + config
}

// admissionPass is the measured outcome of one workload replay.
type admissionPass struct {
	wall       time.Duration // total wall clock of the pass
	requests   int
	latencySum time.Duration
	sheds      int64 // requests rejected with ErrPredictedExplosive
	matches    int64
	mispredict int64 // misprediction delta recorded during this pass
}

// admissionRow maps a pass onto the shared AblationRow shape. Field
// reuse, since this ablation measures a service rather than a kernel:
// MeanTotalTime is the pass's total wall clock in seconds (the headline
// the acceptance test bounds: cost model never slower than static),
// MeanMatchTime the mean per-request latency, MeanSteals the shed
// count, MeanStates the mispredictions recorded during the pass, and
// TotalMatches the matches summed over served queries.
func admissionRow(name string, p admissionPass) AblationRow {
	r := AblationRow{
		Name:          name,
		MeanTotalTime: p.wall.Seconds(),
		MeanSteals:    float64(p.sheds),
		MeanStates:    float64(p.mispredict),
		TotalMatches:  p.matches,
	}
	if p.requests > 0 {
		r.MeanMatchTime = p.latencySum.Seconds() / float64(p.requests)
	}
	return r
}

// explosiveStar builds the probe pattern: the target's max-degree
// vertex with up to maxLeaves of its distinct neighbors, arcs copied
// verbatim so the pattern is satisfiable. Under homomorphism every leaf
// ranges independently over a center candidate's whole neighborhood, so
// the count scales like sum over centers of degree^leaves.
func explosiveStar(g *graph.Graph, maxLeaves int) *graph.Graph {
	center := int32(0)
	for v := int32(1); v < int32(g.NumNodes()); v++ {
		if g.Degree(v) > g.Degree(center) {
			center = v
		}
	}
	b := graph.NewBuilder(1+maxLeaves, maxLeaves)
	b.AddNode(g.NodeLabel(center))
	taken := map[int32]bool{center: true}
	leaves := 0
	addLeaf := func(w int32, lab graph.Label, out bool) {
		if leaves >= maxLeaves || taken[w] {
			return
		}
		taken[w] = true
		leaf := b.AddNode(g.NodeLabel(w))
		if out {
			b.AddEdge(0, leaf, lab)
		} else {
			b.AddEdge(leaf, 0, lab)
		}
		leaves++
	}
	outs, outLabs := g.OutNeighbors(center), g.OutEdgeLabels(center)
	for k, w := range outs {
		addLeaf(w, outLabs[k], true)
	}
	ins, inLabs := g.InNeighbors(center), g.InEdgeLabels(center)
	for k, w := range ins {
		addLeaf(w, inLabs[k], false)
	}
	return b.MustBuild()
}

// admissionBudgets are the fixed time knobs of the ablation: every
// explosive probe carries explosiveTimeout, and the cost-model service
// sheds once it predicts at least explosiveBudget — so one truncated
// probe run establishes a cost floor above the shed threshold.
const (
	admissionExplosiveTimeout = 250 * time.Millisecond
	admissionExplosiveBudget  = 200 * time.Millisecond
	admissionExplosiveProbes  = 3
)

// runAdmissionPass replays the workload once: every collection pattern
// under subgraph iso with the suite budget, then the explosive probes
// under homomorphism with the short probe timeout. Sequential issue
// keeps singleflight out of the measurement.
func runAdmissionPass(ctx context.Context, svc *service.Service, patterns []*graph.Graph, star *graph.Graph, budget time.Duration) admissionPass {
	var p admissionPass
	before := svc.Stats()
	start := time.Now()
	run := func(gp *graph.Graph, sem parsge.Semantics, timeout time.Duration) {
		qstart := time.Now()
		reply, err := svc.Count(ctx, service.Query{
			Pattern: gp,
			Options: parsge.Options{Algorithm: parsge.Auto, Semantics: sem, Timeout: timeout},
		})
		p.latencySum += time.Since(qstart)
		p.requests++
		switch {
		case errors.Is(err, service.ErrPredictedExplosive):
			p.sheds++
		case err == nil && !reply.Result.TimedOut:
			p.matches += reply.Result.Matches
		}
	}
	for _, gp := range patterns {
		if ctx.Err() != nil {
			break
		}
		run(gp, parsge.SubgraphIso, budget)
	}
	for i := 0; i < admissionExplosiveProbes && ctx.Err() == nil; i++ {
		run(star, parsge.Homomorphism, admissionExplosiveTimeout)
	}
	p.wall = time.Since(start)
	after := svc.Stats()
	p.mispredict = (after.MispredictSmall + after.MispredictLarge) -
		(before.MispredictSmall + before.MispredictLarge)
	return p
}

// staticClassify is the pre-cost-model admission heuristic, the
// ablation's baseline: a query gets the parallel pool when it asks for
// parallelism, has at least 6 pattern nodes, or has at least 4 on a
// target of mean degree 8 or more. It sheds nothing.
func staticClassify(tgt *parsge.Target) func(*parsge.Graph, parsge.Options) bool {
	return func(gp *parsge.Graph, opts parsge.Options) bool {
		np := gp.NumNodes()
		return opts.Workers > 1 || opts.Workers == parsge.AutoWorkers || np >= 6 || (np >= 4 && tgt.MeanDegree() >= 8)
	}
}

// AblationAdmission compares cost-model admission against the static
// pattern-size heuristic on a mixed workload with explosive star
// probes, two replays each. The result cache is disabled on both
// services so every request really enumerates — the replay measures the
// estimator, not the cache. The cost-model service runs with a
// near-zero SmallLogDomain so that, without history, ordinary queries
// classify large: the first pass then records MispredictLarge for every
// fast query, and the second pass — classified from EWMA history —
// must record no more than the first. That non-increase, plus
// "cost model wall clock never above static", is what the acceptance
// test pins.
func (s *Suite) AblationAdmission() AblationResult {
	ctx := s.Ctx
	if ctx == nil {
		ctx = context.Background() //sgelint:ignore ctxbackground bench harness default when Suite.Ctx is unset; cmd/sgebench passes a SIGINT-bound ctx
	}
	res := AblationResult{Title: "cost-model admission (shed predicted-explosive vs static heuristic)"}
	const coll = "PPIS32"
	insts := s.smallInstances(coll, 4, 8)
	if len(insts) == 0 {
		return res
	}
	// One Target per service: Target.PlanCost is fed by every run
	// against it, and the static service's truncated probe runs must not
	// leak cost floors into the cost model under measurement.
	staticTgt, err := parsge.NewTarget(insts[0].Target, parsge.TargetOptions{})
	if err != nil {
		return res
	}
	costTgt, err := parsge.NewTarget(insts[0].Target, parsge.TargetOptions{})
	if err != nil {
		return res
	}
	patterns := make([]*graph.Graph, 0, len(insts))
	for _, inst := range insts {
		patterns = append(patterns, inst.Pattern)
	}
	star := explosiveStar(insts[0].Target, 12)

	// Self-calibrate the explosive bound threshold to the workload: the
	// midpoint between the heaviest ordinary pattern's domain score and
	// the star probe's, so the probe sheds on sight at any dataset scale
	// while every collection pattern stays admissible. If the probe's
	// bound does not separate from the patterns (degenerate tiny
	// targets), the midpoint keeps the ablation running — the probes
	// simply are not explosive there and no row asserts shedding.
	scoreOf := func(gp *graph.Graph, sem parsge.Semantics) float64 {
		est, err := costTgt.EstimateCost(ctx, gp, parsge.Options{Algorithm: parsge.Auto, Semantics: sem})
		if err != nil {
			return 0
		}
		return est.LogDomainProduct + est.TargetDensity*float64(est.PatternNodes)
	}
	maxPattern := 0.0
	for _, gp := range patterns {
		if sc := scoreOf(gp, parsge.SubgraphIso); sc > maxPattern {
			maxPattern = sc
		}
	}
	explosiveLogDomain := (maxPattern + scoreOf(star, parsge.Homomorphism)) / 2

	static, err := service.New(service.Config{
		Target:          staticTgt,
		Classify:        staticClassify(staticTgt),
		CacheMaxMatches: -1,
	})
	if err != nil {
		return res
	}
	cost, err := service.New(service.Config{
		Target:             costTgt,
		ExplosiveBudget:    admissionExplosiveBudget,
		SmallLogDomain:     0.5,
		ExplosiveLogDomain: explosiveLogDomain,
		CacheMaxMatches:    -1,
	})
	if err != nil {
		return res
	}

	for pass := 1; pass <= 2; pass++ {
		p := runAdmissionPass(ctx, static, patterns, star, s.Timeout)
		res.Rows = append(res.Rows, admissionRow(AdmissionRowName(coll, "static heuristic pass "+strconv.Itoa(pass)), p))
	}
	for pass := 1; pass <= 2; pass++ {
		p := runAdmissionPass(ctx, cost, patterns, star, s.Timeout)
		res.Rows = append(res.Rows, admissionRow(AdmissionRowName(coll, "cost model pass "+strconv.Itoa(pass)), p))
	}
	s.printAblation(res)
	s.csvAblation(res)
	return res
}

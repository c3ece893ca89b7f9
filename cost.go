package parsge

import (
	"context"
	"fmt"
	"time"

	"parsge/internal/domain"
)

// This file exposes the cheap per-query cost signals the service layer's
// admission model classifies on: domain preprocessing run *ahead* of
// admission (it is milliseconds and shares the target's label index),
// summarized as a staged upper bound plus the plan key that links the
// estimate to the epoch-keyed plan histogram (Target.PlanCost).

// CostEstimate is the pre-admission cost summary of one query: the
// resolved preprocessing plan, the staged domain sizes it produced, and
// the snapshot epoch everything was pinned at. It is an upper-bound
// signal, not a prediction — callers combine it with the plan's
// historical mean match time (Target.PlanCost at the same Epoch) to
// price the query.
type CostEstimate struct {
	// Plan is the resolved preprocessing plan with its timings and
	// staged domain sizes; nil when the resolved engine is plain RI
	// (which computes no domains — the estimate still runs them for the
	// bound, but the query itself will record no plan).
	Plan *PlanInfo
	// PlanKey is the histogram bucket key the query's result will land
	// in: Plan.String(), or "none" for plain RI. Feed it with Epoch to
	// Target.PlanCost for the plan's historical cost.
	PlanKey string
	// LogDomainProduct is log2 of the product of final domain sizes —
	// the staged upper bound on candidate assignments. Zero when
	// Unsatisfiable.
	LogDomainProduct float64
	// DomainFinal is the total domain size (sum over pattern nodes)
	// after all propagation.
	DomainFinal int
	// PatternNodes and PatternEdges describe the simplified pattern.
	PatternNodes, PatternEdges int
	// TargetDensity is the target's arc density m/(n·(n−1)) — the
	// signal that scales how explosive a loose domain bound really is.
	TargetDensity float64
	// Unsatisfiable reports preprocessing proved zero matches: some
	// domain ran empty, so the query is free however large the pattern.
	Unsatisfiable bool
	// PreprocTime is the wall time this estimate spent (domain
	// computation included).
	PreprocTime time.Duration
	// Epoch is the target mutation epoch the estimate was computed
	// against. An admission decision derived from this estimate is
	// attributable to exactly this graph version.
	Epoch uint64
}

// EstimateCost runs the query's domain preprocessing against the current
// target snapshot and returns the staged cost signals without searching.
// It resolves algorithm, semantics and the preprocessing schedule exactly
// as Enumerate would (so PlanKey matches the bucket the real run will
// record into), pins everything to one snapshot epoch, and costs
// milliseconds — the point is to classify *after* preprocessing instead
// of guessing from pattern size alone.
func (t *Target) EstimateCost(ctx context.Context, pattern *Graph, opts Options) (CostEstimate, error) {
	if pattern == nil {
		return CostEstimate{}, fmt.Errorf("parsge: nil pattern graph")
	}
	start := time.Now()
	st := t.state.Load()
	if ctx != nil && ctx.Err() != nil {
		return CostEstimate{Epoch: st.epoch}, ctx.Err()
	}
	alg, dopts, err := t.resolveQuery(st, opts)
	if err != nil {
		return CostEstimate{}, err
	}
	gp := pattern.Simplify()
	// Plain RI computes no domains, but the bound is still the best
	// shed signal available, so the estimate always computes them.
	doms, dstats := domain.Prepare(gp, st.g, dopts)
	logProd, anyEmpty := doms.LogProduct()

	est := CostEstimate{
		DomainFinal:   dstats.Final,
		PatternNodes:  gp.NumNodes(),
		PatternEdges:  gp.NumEdges(),
		Unsatisfiable: anyEmpty,
		Epoch:         st.epoch,
	}
	if !anyEmpty {
		est.LogDomainProduct = logProd
	}
	if n := st.g.NumNodes(); n > 1 {
		est.TargetDensity = float64(st.g.NumEdges()) / (float64(n) * float64(n-1))
	}
	if alg == RI {
		est.PlanKey = "none" // plain RI records no plan
	} else {
		est.Plan = planInfo(&dstats)
		est.PlanKey = est.Plan.String()
	}
	est.PreprocTime = time.Since(start)
	return est, nil
}

// MeanDegreeAt returns the mean total degree together with the mutation
// epoch of the snapshot it was read from — one atomic load, so the two
// are consistent. Admission decisions that consult the degree pin this
// epoch into their record instead of reading MeanDegree at an unpinned
// instant.
func (t *Target) MeanDegreeAt() (float64, uint64) {
	st := t.state.Load()
	return st.meanDegree, st.epoch
}

package parsge

import (
	"context"
	"fmt"
	"testing"
	"time"

	"parsge/internal/domain"
)

// costClique builds an unlabeled complete graph on n nodes.
func costClique(n int32) *Graph {
	b := NewBuilder(int(n), int(n*(n-1)))
	b.AddNodes(int(n))
	for i := int32(0); i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdgeBoth(i, j, NoLabel)
		}
	}
	return b.MustBuild()
}

// costStar builds an unlabeled undirected star with the given leaf count.
func costStar(leaves int) *Graph {
	b := NewBuilder(1+leaves, 2*leaves)
	b.AddNodes(1 + leaves)
	for i := 1; i <= leaves; i++ {
		b.AddEdgeBoth(0, int32(i), NoLabel)
	}
	return b.MustBuild()
}

// TestTruncatedRunsRecordedSeparately pins the estimator-skew bugfix: a
// timed-out run must land in the plan bucket's truncated counters, not
// among the completed samples — its partial match time is a cost floor,
// not a mean-cost observation. Before the split, one truncated run of a
// heavy query dragged the plan's "mean match time" down to the timeout
// value and the admission model under-priced everything on that plan.
func TestTruncatedRunsRecordedSeparately(t *testing.T) {
	t.Parallel()
	tgt, err := NewTarget(costClique(14), TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// A 9-leaf hom star over K14 has 14·13^9 ≈ 1.5e11 embeddings; 10 ms
	// cannot finish it.
	res, err := tgt.Enumerate(context.Background(), costStar(9), Options{
		Algorithm: RIDSSIFC, // domain-using engine: the run records a plan
		Semantics: Homomorphism,
		Timeout:   10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		t.Fatalf("heavy query finished under 10ms (matches=%d) — test target too small", res.Matches)
	}
	if res.Plan == nil {
		t.Fatal("run recorded no preprocessing plan; cannot locate its histogram bucket")
	}
	plan := res.Plan.String()

	st := tgt.Stats()
	b := st.Plans.Bucket(plan)
	if b.Truncated != 1 || b.Count != 0 {
		t.Fatalf("bucket %q: Truncated=%d Count=%d, want 1/0 (truncated run must not count as a sample)",
			plan, b.Truncated, b.Count)
	}
	if b.TruncatedTime <= 0 {
		t.Fatalf("bucket %q: TruncatedTime=%v, want > 0", plan, b.TruncatedTime)
	}
	if b.MatchTime != 0 {
		t.Fatalf("bucket %q: MatchTime=%v leaked from a truncated run", plan, b.MatchTime)
	}

	pc := tgt.PlanCost(res.Epoch, plan)
	if pc.Samples != 0 || pc.Truncated != 1 {
		t.Fatalf("PlanCost: Samples=%d Truncated=%d, want 0/1", pc.Samples, pc.Truncated)
	}
	if pc.TruncatedMean <= 0 {
		t.Fatalf("PlanCost: TruncatedMean=%v, want > 0 (the truncated floor)", pc.TruncatedMean)
	}
	if pc.MeanMatch != 0 {
		t.Fatalf("PlanCost: MeanMatch=%v from zero completed samples", pc.MeanMatch)
	}
}

// costTwoLabel copies g with its nodes labeled alternately 0 and 1: one
// bit of label entropy, enough for the Auto schedule's label-rich plan.
func costTwoLabel(g *Graph) *Graph {
	b := NewBuilder(g.NumNodes(), g.NumEdges())
	for v := 0; v < g.NumNodes(); v++ {
		b.AddNode(Label(v % 2))
	}
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		labs := g.OutEdgeLabels(v)
		for k, w := range g.OutNeighbors(v) {
			b.AddEdge(v, w, labs[k])
		}
	}
	return b.MustBuild()
}

// TestEstimateCostMatchesRealRun: for every algorithm, semantics and
// schedule, on a target dense enough for the bitset kernel and one
// sparse enough for the slice kernel, the estimate's PlanKey is the
// plan the real run records ("none" for plain RI) and the run lands in
// that bucket; for the domain-using engines the estimate's
// Unsatisfiable agrees with the run's. The estimate is also pinned to
// the target's current epoch.
func TestEstimateCostMatchesRealRun(t *testing.T) {
	t.Parallel()
	targets := []struct {
		name   string
		g      *Graph
		kernel domain.Kernel
	}{
		{"dense", costTwoLabel(costClique(12)), domain.KernelBitset},
		{"sparse", costTwoLabel(cycleGraph(300)), domain.KernelSlice},
	}
	patterns := []*Graph{costTwoLabel(pathGraph(3)), costStar(3)}
	algs := []Algorithm{RI, RIDS, RIDSSI, RIDSSIFC, VF2, LAD}
	sems := []Semantics{SubgraphIso, InducedIso, Homomorphism}
	ctx := context.Background()
	for _, tc := range targets {
		g := tc.g
		if k := domain.ResolveKernel(KernelAuto, g.NumNodes(), g.NumEdges()); k != tc.kernel {
			t.Fatalf("%s target resolves to the %v kernel, want %v", tc.name, k, tc.kernel)
		}
		tgt, err := NewTarget(g, TargetOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for pi, pat := range patterns {
			for _, alg := range algs {
				for _, sem := range sems {
					for _, sched := range []Schedule{ScheduleAuto, ScheduleFixed} {
						name := fmt.Sprintf("%s/p%d/%v/%v/%v", tc.name, pi, alg, sem, sched)
						opts := Options{Algorithm: alg, Semantics: sem, Timeout: 5 * time.Second,
							Pruning: PruningOptions{Schedule: sched}}
						est, err := tgt.EstimateCost(ctx, pat, opts)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						// Plan-less runs count as NoPlan, not in a bucket.
						landed := func() int64 {
							st := tgt.Stats()
							if est.PlanKey == "none" {
								return st.Plans.NoPlan
							}
							return st.Plans.Bucket(est.PlanKey).Count
						}
						before := landed()
						res, err := tgt.Enumerate(ctx, pat, opts)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						gotPlan := "none"
						if res.Plan != nil {
							gotPlan = res.Plan.String()
						}
						if est.PlanKey != gotPlan {
							t.Errorf("%s: estimate PlanKey %q, real run recorded plan %q", name, est.PlanKey, gotPlan)
						}
						if landed() != before+1 {
							t.Errorf("%s: real run did not land in the estimated bucket %q", name, est.PlanKey)
						}
						if alg != RI && est.Unsatisfiable != res.Unsatisfiable {
							t.Errorf("%s: estimate Unsatisfiable=%v, real run %v", name, est.Unsatisfiable, res.Unsatisfiable)
						}
					}
				}
			}
		}
	}

	tgt, err := NewTarget(costClique(10), TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Algorithm: RIDSSIFC, Semantics: Homomorphism, Timeout: 5 * time.Second}
	est, err := tgt.EstimateCost(ctx, costStar(3), opts)
	if err != nil {
		t.Fatal(err)
	}
	if est.Unsatisfiable {
		t.Fatal("satisfiable query estimated unsatisfiable")
	}
	if est.LogDomainProduct <= 0 {
		t.Fatalf("LogDomainProduct=%v, want > 0 for a satisfiable pattern", est.LogDomainProduct)
	}
	if est.Epoch != tgt.Epoch() {
		t.Fatalf("estimate epoch %d, target epoch %d", est.Epoch, tgt.Epoch())
	}

	// A pattern whose label does not occur in the target must be proved
	// unsatisfiable by preprocessing — the admission model prices it free.
	lb := NewBuilder(2, 2)
	lb.AddNode(9)
	lb.AddNode(9)
	lb.AddEdgeBoth(0, 1, NoLabel)
	uest, err := tgt.EstimateCost(ctx, lb.MustBuild(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !uest.Unsatisfiable {
		t.Fatal("absent-label pattern not estimated unsatisfiable")
	}
	if uest.LogDomainProduct != 0 {
		t.Fatalf("unsatisfiable estimate carries LogDomainProduct=%v", uest.LogDomainProduct)
	}
}

// TestCensusTruncationRecorded: a census ended by its timeout must also
// record as truncated in the census plan bucket, keeping the census cost
// signal honest the same way query truncation does.
func TestCensusTruncationRecorded(t *testing.T) {
	t.Parallel()
	tgt, err := NewTarget(costClique(40), TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tgt.Census(context.Background(), CensusOptions{K: 6, Timeout: 15 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		t.Skipf("census of C(40,6) finished under 15ms on this machine (subgraphs=%d)", res.Subgraphs)
	}
	st := tgt.Stats()
	b := st.Plans.Bucket("census:k=6")
	if b.Truncated != 1 || b.Count != 0 {
		t.Fatalf("census bucket: Truncated=%d Count=%d, want 1/0", b.Truncated, b.Count)
	}
}

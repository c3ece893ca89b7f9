package vf2

import (
	"context"
	"testing"
	"testing/quick"

	"parsge/internal/domain"
	"parsge/internal/graph"
	"parsge/internal/ri"
	"parsge/internal/testutil"
)

func TestTriangleRotations(t *testing.T) {
	bp := &graph.Builder{}
	bp.AddNodes(3)
	bp.AddEdge(0, 1, 0)
	bp.AddEdge(1, 2, 0)
	bp.AddEdge(2, 0, 0)
	gp := bp.MustBuild()
	res := Enumerate(gp, gp, Options{})
	if res.Matches != 3 {
		t.Fatalf("triangle self-match = %d, want 3 rotations", res.Matches)
	}
}

func TestEmptyAndOversizedPattern(t *testing.T) {
	gt := func() *graph.Graph {
		b := &graph.Builder{}
		b.AddNodes(2)
		b.AddEdge(0, 1, 0)
		return b.MustBuild()
	}()
	if res := Enumerate((&graph.Builder{}).MustBuild(), gt, Options{}); res.Matches != 0 {
		t.Error("empty pattern should yield 0 matches")
	}
	big := &graph.Builder{}
	big.AddNodes(5)
	if res := Enumerate(big.MustBuild(), gt, Options{}); res.Matches != 0 {
		t.Error("pattern larger than target should yield 0 matches")
	}
}

func TestLabels(t *testing.T) {
	bp := &graph.Builder{}
	bp.AddNode(1)
	bp.AddNode(1)
	bp.AddEdge(0, 1, 7)
	gp := bp.MustBuild()

	bt := &graph.Builder{}
	bt.AddNode(1)
	bt.AddNode(1)
	bt.AddNode(2)
	bt.AddEdge(0, 1, 7)
	bt.AddEdge(1, 2, 7) // wrong node label at 2
	bt.AddEdge(1, 0, 8) // wrong edge label
	gt := bt.MustBuild()
	if res := Enumerate(gp, gt, Options{}); res.Matches != 1 {
		t.Fatalf("matches = %d, want 1", res.Matches)
	}
}

func TestSelfLoop(t *testing.T) {
	bp := &graph.Builder{}
	bp.AddNodes(1)
	bp.AddEdge(0, 0, 0)
	gp := bp.MustBuild()
	bt := &graph.Builder{}
	bt.AddNodes(3)
	bt.AddEdge(0, 0, 0)
	bt.AddEdge(1, 2, 0)
	gt := bt.MustBuild()
	if res := Enumerate(gp, gt, Options{}); res.Matches != 1 {
		t.Fatalf("self-loop matches = %d, want 1", res.Matches)
	}
}

func TestLimitAndVisit(t *testing.T) {
	bp := &graph.Builder{}
	bp.AddNodes(1)
	gp := bp.MustBuild()
	bt := &graph.Builder{}
	bt.AddNodes(10)
	gt := bt.MustBuild()

	res := Enumerate(gp, gt, Options{Limit: 4})
	if res.Matches != 4 {
		t.Fatalf("limit ignored: %d", res.Matches)
	}
	calls := 0
	res = Enumerate(gp, gt, Options{Visit: func(m []int32) bool {
		calls++
		return calls < 3
	}})
	if calls != 3 || res.Matches != 3 {
		t.Fatalf("visit stop wrong: calls=%d matches=%d", calls, res.Matches)
	}
}

func TestCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	bp := &graph.Builder{}
	bp.AddNodes(1)
	bt := &graph.Builder{}
	bt.AddNodes(3000)
	res := Enumerate(bp.MustBuild(), bt.MustBuild(), Options{Ctx: ctx})
	if !res.Aborted {
		t.Fatal("pre-cancelled context did not abort a 3000-candidate scan")
	}
}

// TestQuickAgreesWithBruteForce cross-validates VF2 against the ground
// truth on random instances.
func TestQuickAgreesWithBruteForce(t *testing.T) {
	f := func(seed int64, extract bool) bool {
		gp, gt := testutil.RandomInstance(seed, testutil.InstanceOptions{
			TargetNodes:  10,
			TargetEdges:  30,
			PatternNodes: 4,
			Extract:      extract,
		})
		return Enumerate(gp, gt, Options{}).Matches == testutil.BruteCount(gp, gt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAgreesWithRI: the two independent engines must agree — this is
// the strongest mutual validation in the suite.
func TestQuickAgreesWithRI(t *testing.T) {
	f := func(seed int64) bool {
		gp, gt := testutil.RandomInstance(seed, testutil.InstanceOptions{
			TargetNodes:  16,
			TargetEdges:  70,
			PatternNodes: 5,
			Extract:      true,
		})
		want, err := ri.Enumerate(gp, gt, ri.Options{Variant: ri.VariantRIDSSIFC}, ri.RunOptions{})
		if err != nil {
			return false
		}
		return Enumerate(gp, gt, Options{}).Matches == want.Matches
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkVF2(b *testing.B) {
	gp, gt := testutil.RandomInstance(11, testutil.InstanceOptions{
		TargetNodes:  60,
		TargetEdges:  400,
		PatternNodes: 6,
		Extract:      true,
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Enumerate(gp, gt, Options{})
	}
}

// TestSemanticsAgainstOracle validates the engine under every matching
// semantics directly at the package level (the facade-level differential
// lives in the root package).
func TestSemanticsAgainstOracle(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		gp, gt := testutil.RandomInstance(seed, testutil.InstanceOptions{
			TargetNodes: 8, TargetEdges: 20, PatternNodes: 4, Nasty: seed%2 == 0,
		})
		for _, sem := range []graph.Semantics{graph.SubgraphIso, graph.InducedIso, graph.Homomorphism} {
			want := testutil.BruteCountSem(gp, gt, sem)
			res := Enumerate(gp, gt, Options{Domain: domain.Options{Semantics: sem}})
			if res.Matches != want {
				t.Errorf("seed %d under %v: VF2 = %d, oracle = %d", seed, sem, res.Matches, want)
			}
		}
	}
}

// TestHomomorphismFoldsPath: the canonical non-injective case — the path
// P3 folds onto a single undirected edge in exactly two ways.
func TestHomomorphismFoldsPath(t *testing.T) {
	bp := &graph.Builder{}
	bp.AddNodes(3)
	bp.AddEdge(0, 1, 0)
	bp.AddEdge(1, 0, 0)
	bp.AddEdge(1, 2, 0)
	bp.AddEdge(2, 1, 0)
	gp := bp.MustBuild()
	bt := &graph.Builder{}
	bt.AddNodes(2)
	bt.AddEdge(0, 1, 0)
	bt.AddEdge(1, 0, 0)
	gt := bt.MustBuild()
	if res := Enumerate(gp, gt, Options{Domain: domain.Options{Semantics: graph.Homomorphism}}); res.Matches != 2 {
		t.Fatalf("P3 -> K2 homs = %d, want 2", res.Matches)
	}
	if res := Enumerate(gp, gt, Options{}); res.Matches != 0 {
		t.Fatalf("P3 -> K2 subgraph isos = %d, want 0", res.Matches)
	}
}

// TestDomainsMatchBaseline: the domain-backed default and the classic
// domain-free baseline (SkipDomains) must count identically under every
// semantics, while the default never explores more states — the wiring
// of the shared pruning subsystem into VF2 is an optimization, not a
// semantics change.
func TestDomainsMatchBaseline(t *testing.T) {
	sems := []graph.Semantics{graph.SubgraphIso, graph.InducedIso, graph.Homomorphism}
	for seed := int64(0); seed < 30; seed++ {
		gp, gt := testutil.RandomInstance(seed, testutil.InstanceOptions{
			TargetNodes: 10, TargetEdges: 30, PatternNodes: 4, Extract: seed%2 == 0, Nasty: seed%3 == 0,
		})
		for _, sem := range sems {
			pruned := Enumerate(gp, gt, Options{Domain: domain.Options{Semantics: sem}})
			base := Enumerate(gp, gt, Options{SkipDomains: true, Domain: domain.Options{Semantics: sem}})
			if pruned.Matches != base.Matches {
				t.Fatalf("seed %d %v: pruned=%d baseline=%d matches", seed, sem, pruned.Matches, base.Matches)
			}
			if pruned.States > base.States {
				t.Errorf("seed %d %v: domains enlarged the search: %d > %d states",
					seed, sem, pruned.States, base.States)
			}
		}
	}
}

// TestUnsatisfiableViaDomains: a pattern whose label does not occur in
// the target is rejected by preprocessing without visiting any state.
func TestUnsatisfiableViaDomains(t *testing.T) {
	bp := &graph.Builder{}
	bp.AddNode(7)
	gp := bp.MustBuild()
	bt := &graph.Builder{}
	bt.AddNodes(3)
	gt := bt.MustBuild()
	res := Enumerate(gp, gt, Options{})
	if !res.Unsatisfiable || res.Matches != 0 || res.States != 0 {
		t.Fatalf("want unsatisfiable with zero work, got %+v", res)
	}
}

package lad

import (
	"context"
	"testing"
	"testing/quick"

	"parsge/internal/domain"
	"parsge/internal/graph"
	"parsge/internal/ri"
	"parsge/internal/testutil"
)

func TestTriangle(t *testing.T) {
	b := &graph.Builder{}
	b.AddNodes(3)
	b.AddEdge(0, 1, 0)
	b.AddEdge(1, 2, 0)
	b.AddEdge(2, 0, 0)
	g := b.MustBuild()
	res := Enumerate(g, g, Options{})
	if res.Matches != 3 {
		t.Fatalf("triangle self-match = %d, want 3", res.Matches)
	}
	if res.Propagations == 0 {
		t.Error("no propagation recorded")
	}
}

func TestEmptyAndOversized(t *testing.T) {
	small := &graph.Builder{}
	small.AddNodes(2)
	small.AddEdge(0, 1, 0)
	gt := small.MustBuild()
	if res := Enumerate((&graph.Builder{}).MustBuild(), gt, Options{}); res.Matches != 0 {
		t.Error("empty pattern matched")
	}
	big := &graph.Builder{}
	big.AddNodes(5)
	big.AddEdgeBoth(0, 1, 0)
	if res := Enumerate(big.MustBuild(), gt, Options{}); res.Matches != 0 {
		t.Error("oversized pattern matched")
	}
}

func TestUnsatisfiableDomains(t *testing.T) {
	bp := &graph.Builder{}
	bp.AddNode(5)
	bt := &graph.Builder{}
	bt.AddNode(6)
	res := Enumerate(bp.MustBuild(), bt.MustBuild(), Options{})
	if !res.Unsatisfiable || res.Matches != 0 || res.States != 0 {
		t.Fatalf("label mismatch should be unsat without search: %+v", res)
	}
}

func TestSelfLoops(t *testing.T) {
	bp := &graph.Builder{}
	bp.AddNodes(1)
	bp.AddEdge(0, 0, 7)
	gp := bp.MustBuild()
	bt := &graph.Builder{}
	bt.AddNodes(3)
	bt.AddEdge(0, 0, 7)
	bt.AddEdge(1, 1, 8)
	gt := bt.MustBuild()
	if res := Enumerate(gp, gt, Options{}); res.Matches != 1 {
		t.Fatalf("self-loop matches = %d, want 1", res.Matches)
	}
}

func TestLimitVisitCancel(t *testing.T) {
	bp := &graph.Builder{}
	bp.AddNodes(1)
	gp := bp.MustBuild()
	bt := &graph.Builder{}
	bt.AddNodes(10)
	gt := bt.MustBuild()

	if res := Enumerate(gp, gt, Options{Limit: 4}); res.Matches != 4 {
		t.Fatalf("limit ignored: %d", res.Matches)
	}
	calls := 0
	res := Enumerate(gp, gt, Options{Visit: func(m []int32) bool {
		calls++
		return calls < 3
	}})
	if calls != 3 || res.Matches != 3 {
		t.Fatalf("visit stop wrong: %d/%d", calls, res.Matches)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	bigT := &graph.Builder{}
	bigT.AddNodes(4000)
	resC := Enumerate(gp, bigT.MustBuild(), Options{Ctx: ctx})
	if !resC.Aborted {
		t.Error("pre-cancelled context did not abort")
	}
}

func TestVisitMappingsValid(t *testing.T) {
	gp, gt := testutil.RandomInstance(5, testutil.InstanceOptions{
		TargetNodes: 12, TargetEdges: 40, PatternNodes: 4, Extract: true,
	})
	count := 0
	Enumerate(gp, gt, Options{Visit: func(m []int32) bool {
		count++
		used := map[int32]bool{}
		for _, vt := range m {
			if used[vt] {
				t.Fatal("non-injective mapping")
			}
			used[vt] = true
		}
		for _, e := range gp.Edges() {
			if !gt.HasEdgeLabeled(m[e.From], m[e.To], e.Label) {
				t.Fatalf("mapping %v misses edge %v", m, e)
			}
		}
		return true
	}})
	if count == 0 {
		t.Fatal("extracted instance had no matches")
	}
}

// TestQuickAgreesWithBruteForce is the definitional cross-validation.
func TestQuickAgreesWithBruteForce(t *testing.T) {
	f := func(seed int64, extract bool) bool {
		gp, gt := testutil.RandomInstance(seed, testutil.InstanceOptions{
			TargetNodes:  10,
			TargetEdges:  34,
			PatternNodes: 4,
			Extract:      extract,
		})
		return Enumerate(gp, gt, Options{}).Matches == testutil.BruteCount(gp, gt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAgreesWithRIOnNasty covers parallel edges and self-loops.
func TestQuickAgreesWithRIOnNasty(t *testing.T) {
	f := func(seed int64) bool {
		gp, gt := testutil.RandomInstance(seed, testutil.InstanceOptions{
			TargetNodes:  9,
			TargetEdges:  40,
			PatternNodes: 3,
			Nasty:        true,
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

// TestSearchSpaceNotLargerThanRIDS: propagation must explore at most as
// many assignments as RI-DS explores states on extracted instances.
func TestSearchSpaceProfile(t *testing.T) {
	gp, gt := testutil.RandomInstance(17, testutil.InstanceOptions{
		TargetNodes: 40, TargetEdges: 240, PatternNodes: 5, Extract: true,
	})
	ladRes := Enumerate(gp, gt, Options{})
	riRes, err := ri.Enumerate(gp, gt, ri.Options{Variant: ri.VariantRIDS}, ri.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ladRes.Matches != riRes.Matches {
		t.Fatalf("LAD %d matches vs RI-DS %d", ladRes.Matches, riRes.Matches)
	}
	t.Logf("states: LAD=%d (props=%d) RI-DS=%d", ladRes.States, ladRes.Propagations, riRes.States)
}

func BenchmarkLAD(b *testing.B) {
	gp, gt := testutil.RandomInstance(11, testutil.InstanceOptions{
		TargetNodes: 60, TargetEdges: 400, PatternNodes: 6, Extract: true,
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Enumerate(gp, gt, Options{})
	}
}

// TestSemanticsAgainstOracle validates the propagation engine under
// every matching semantics directly at the package level: the induced
// non-edge filtering and the homomorphism AllDifferent skip must both
// agree with the brute-force oracle.
func TestSemanticsAgainstOracle(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		gp, gt := testutil.RandomInstance(seed, testutil.InstanceOptions{
			TargetNodes: 8, TargetEdges: 20, PatternNodes: 4, Nasty: seed%2 == 1,
		})
		for _, sem := range []graph.Semantics{graph.SubgraphIso, graph.InducedIso, graph.Homomorphism} {
			want := testutil.BruteCountSem(gp, gt, sem)
			res := Enumerate(gp, gt, Options{Domain: domain.Options{Semantics: sem}})
			if res.Matches != want {
				t.Errorf("seed %d under %v: LAD = %d, oracle = %d", seed, sem, res.Matches, want)
			}
		}
	}
}

// TestInducedSelfLoopRejected: a looped target node is not an induced
// image of a loop-free pattern node, even when degrees allow it.
func TestInducedSelfLoopRejected(t *testing.T) {
	bp := &graph.Builder{}
	bp.AddNodes(1)
	gp := bp.MustBuild()
	bt := &graph.Builder{}
	bt.AddNodes(2)
	bt.AddEdge(1, 1, 0)
	gt := bt.MustBuild()
	if res := Enumerate(gp, gt, Options{Domain: domain.Options{Semantics: graph.InducedIso}}); res.Matches != 1 {
		t.Fatalf("induced single-node matches = %d, want 1 (only the loop-free node)", res.Matches)
	}
	if res := Enumerate(gp, gt, Options{}); res.Matches != 2 {
		t.Fatalf("non-induced single-node matches = %d, want 2", res.Matches)
	}
}

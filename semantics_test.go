package parsge

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"parsge/internal/graph"
	"parsge/internal/testutil"
)

// allSemantics lists every matching semantics once, for range loops.
var allSemantics = []Semantics{SubgraphIso, InducedIso, Homomorphism}

// engineConfigs are the engine configurations the differential tests run
// against the brute-force oracle: the four RI variants, the parallel
// engine (which inherits semantics through the shared ri.Prepare), the
// two independent baselines, and filter-toggled variants of each domain
// consumer — every new pruning filter is differentially validated both
// on (the default) and off, so an unsound filter and a filter whose
// absence breaks a code path are both caught.
var engineConfigs = []struct {
	name string
	opts Options
}{
	{"RI", Options{Algorithm: RI}},
	{"RI-DS", Options{Algorithm: RIDS}},
	{"RI-DS-SI", Options{Algorithm: RIDSSI}},
	{"RI-DS-SI-FC", Options{Algorithm: RIDSSIFC}},
	{"parallel-RI", Options{Algorithm: RI, Workers: 4}},
	{"parallel-RI-DS-SI-FC", Options{Algorithm: RIDSSIFC, Workers: 4, TaskGroupSize: 2}},
	{"VF2", Options{Algorithm: VF2}},
	{"LAD", Options{Algorithm: LAD}},
	{"RI-DS-SI-FC/noNLF", Options{Algorithm: RIDSSIFC, Pruning: PruningOptions{DisableNLF: true}}},
	{"RI-DS-SI-FC/noInducedAC", Options{Algorithm: RIDSSIFC, Pruning: PruningOptions{DisableInducedAC: true}}},
	{"LAD/noNLF", Options{Algorithm: LAD, Pruning: PruningOptions{DisableNLF: true}}},
	{"VF2/noInducedAC", Options{Algorithm: VF2, Pruning: PruningOptions{DisableInducedAC: true}}},
	// Schedule-space points: the default above is ScheduleAuto, so the
	// Fixed pipeline and the capped-AC (original RI-DS) schedule are the
	// configurations that need explicit coverage — an adaptive scheduler
	// bug that loses matches in just one plan must break one of these.
	{"RI-DS-SI-FC/fixed", Options{Algorithm: RIDSSIFC, Pruning: PruningOptions{Schedule: ScheduleFixed}}},
	{"RI-DS-SI-FC/ac1", Options{Algorithm: RIDSSIFC, Pruning: PruningOptions{Schedule: ScheduleFixed, ACPasses: 1}}},
	{"LAD/fixed", Options{Algorithm: LAD, Pruning: PruningOptions{Schedule: ScheduleFixed}}},
	{"VF2/ac1", Options{Algorithm: VF2, Pruning: PruningOptions{ACPasses: 1}}},
	// Kernel-space points: KernelAuto resolves to the bitset rows on
	// test-sized targets, so the explicit slice configurations keep the
	// classic CSR hot paths differentially covered, and the explicit
	// bitset configurations pin the forced side (fallback rules and all).
	{"RI-DS-SI-FC/sliceKernel", Options{Algorithm: RIDSSIFC, Pruning: PruningOptions{Kernel: KernelSlice}}},
	{"RI-DS-SI-FC/bitsetKernel", Options{Algorithm: RIDSSIFC, Pruning: PruningOptions{Kernel: KernelBitset}}},
	{"parallel-RI-DS-SI-FC/sliceKernel", Options{Algorithm: RIDSSIFC, Workers: 4, TaskGroupSize: 2, Pruning: PruningOptions{Kernel: KernelSlice}}},
	{"VF2/sliceKernel", Options{Algorithm: VF2, Pruning: PruningOptions{Kernel: KernelSlice}}},
	{"LAD/sliceKernel", Options{Algorithm: LAD, Pruning: PruningOptions{Kernel: KernelSlice}}},
}

// countAllEngines runs every engine configuration under sem and fails the
// test unless all of them return want.
func countAllEngines(t *testing.T, gp, gt *Graph, sem Semantics, want int64, label string) {
	t.Helper()
	for _, ec := range engineConfigs {
		opts := ec.opts
		opts.Semantics = sem
		got, err := Count(gp, gt, opts)
		if err != nil {
			t.Fatalf("%s: %s under %v: %v", label, ec.name, sem, err)
		}
		if got != want {
			t.Errorf("%s: %s under %v = %d, want %d", label, ec.name, sem, got, want)
		}
	}
}

// TestCrossEngineDifferential is the repository's central correctness
// test: on random (pattern, target) pairs — plain, extracted (match
// guaranteed), and nasty (parallel edges, self-loops) — every engine
// must agree with the brute-force oracle, and therefore with every other
// engine, under every matching semantics. Well over 100 instances per
// semantics.
func TestCrossEngineDifferential(t *testing.T) {
	kinds := []struct {
		name string
		opts testutil.InstanceOptions
	}{
		{"plain", testutil.InstanceOptions{TargetNodes: 9, TargetEdges: 24, PatternNodes: 4}},
		{"extract", testutil.InstanceOptions{TargetNodes: 9, TargetEdges: 24, PatternNodes: 4, Extract: true}},
		{"nasty", testutil.InstanceOptions{TargetNodes: 8, TargetEdges: 22, PatternNodes: 3, Nasty: true}},
		{"dense", testutil.InstanceOptions{TargetNodes: 7, TargetEdges: 30, PatternNodes: 4, NodeLabels: 2, Extract: true}},
	}
	const seedsPerKind = 30 // 4 kinds × 30 seeds = 120 instances per semantics
	for _, k := range kinds {
		for seed := int64(0); seed < seedsPerKind; seed++ {
			gp, gt := testutil.RandomInstance(seed, k.opts)
			for _, sem := range allSemantics {
				want := testutil.BruteCountSem(gp, gt, sem)
				label := fmt.Sprintf("%s/seed=%d", k.name, seed)
				countAllEngines(t, gp, gt, sem, want, label)
			}
		}
	}
}

// TestHomLargerPattern: homomorphisms may map a larger pattern into a
// smaller target; the injective semantics must reject such instances
// without error. P3 into a single undirected edge has exactly two homs
// (fold the path onto the edge).
func TestHomLargerPattern(t *testing.T) {
	gp := pathGraph(3)
	bt := NewBuilder(2, 2)
	bt.AddNodes(2)
	bt.AddEdgeBoth(0, 1, 0)
	gt := bt.MustBuild()

	countAllEngines(t, gp, gt, Homomorphism, 2, "P3->K2")
	countAllEngines(t, gp, gt, SubgraphIso, 0, "P3->K2")
	countAllEngines(t, gp, gt, InducedIso, 0, "P3->K2")
}

// pathGraph returns the undirected path on n unlabeled nodes.
func pathGraph(n int) *Graph {
	b := NewBuilder(n, 2*(n-1))
	b.AddNodes(n)
	for i := 0; i < n-1; i++ {
		b.AddEdgeBoth(int32(i), int32(i+1), 0)
	}
	return b.MustBuild()
}

// cycleGraph returns the undirected cycle on n unlabeled nodes.
func cycleGraph(n int) *Graph {
	b := NewBuilder(n, 2*n)
	b.AddNodes(n)
	for i := 0; i < n; i++ {
		b.AddEdgeBoth(int32(i), int32((i+1)%n), 0)
	}
	return b.MustBuild()
}

// cliqueGraph returns the complete unlabeled graph on n nodes.
func cliqueGraph(n int) *Graph {
	b := NewBuilder(n, n*(n-1))
	b.AddNodes(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdgeBoth(int32(i), int32(j), 0)
		}
	}
	return b.MustBuild()
}

// starGraph returns the undirected star: node 0 joined to n leaves.
func starGraph(leaves int) *Graph {
	b := NewBuilder(leaves+1, 2*leaves)
	b.AddNodes(leaves + 1)
	for i := 1; i <= leaves; i++ {
		b.AddEdgeBoth(0, int32(i), 0)
	}
	return b.MustBuild()
}

// directedCycle returns the directed cycle on n unlabeled nodes.
func directedCycle(n int) *Graph {
	b := NewBuilder(n, n)
	b.AddNodes(n)
	for i := 0; i < n; i++ {
		b.AddEdge(int32(i), int32((i+1)%n), 0)
	}
	return b.MustBuild()
}

// goldenMotifCases are the hand-computed motif tables
// TestGoldenMotifCounts pins; the kernel differential battery re-runs
// them with the bitset kernel forced on every engine.
var goldenMotifCases = []struct {
	name               string
	pattern, target    *Graph
	iso, induced, homo int64
}{
	// Every vertex triple of K4 induces a triangle: 4·3·2 ordered
	// embeddings, and homomorphic images of a triangle must be
	// pairwise-adjacent, hence distinct — all three counts agree.
	{"triangle-in-K4", cycleGraph(3), cliqueGraph(4), 24, 24, 24},
	// Ordered P3 paths in a triangle: 3 centers × 2 endpoint
	// orders. None induced (the endpoints are always adjacent).
	// Homs additionally fold endpoints together: 3 centers × 2 × 2
	// independent endpoint choices.
	{"P3-in-C3", pathGraph(3), cycleGraph(3), 6, 0, 12},
	// P3 in P3: the pattern center must map to the target center
	// (ends have degree 1); the ends are non-adjacent, so both
	// embeddings are induced. Homs are walks of length 2: 1+4+1.
	{"P3-in-P3", pathGraph(3), pathGraph(3), 2, 2, 6},
	// P4 runs in C6: 6 start points × 2 directions; all chordless
	// in a 6-cycle, hence induced. Homs are walks of length 3:
	// 6 starts × 2^3 step choices.
	{"P4-in-C6", pathGraph(4), cycleGraph(6), 12, 12, 48},
	// Claw (star with 3 leaves) in K4: center 4 × 3! leaf orders;
	// never induced (leaves are adjacent in K4); homs pick each
	// leaf independently from the center's 3 neighbors.
	{"claw-in-K4", starGraph(3), cliqueGraph(4), 24, 0, 108},
	// A directed 3-cycle in itself: the 3 rotations, which are also
	// induced (no extra arcs exist); homs add nothing (images of a
	// directed cycle in a directed cycle of equal length are the
	// rotations).
	{"C3->C3-directed", directedCycle(3), directedCycle(3), 3, 3, 3},
	// A directed 3-cycle has no homomorphism into a single arc
	// (the target has no closed walk).
	{"C3->arc-directed", directedCycle(3), pathArc(), 0, 0, 0},
}

// TestGoldenMotifCounts pins classic motif counts with hand-computed
// expected values per semantics. Counts are ordered embeddings (divide
// by Automorphisms for occurrences).
func TestGoldenMotifCounts(t *testing.T) {
	for _, c := range goldenMotifCases {
		t.Run(c.name, func(t *testing.T) {
			wants := map[Semantics]int64{
				SubgraphIso:  c.iso,
				InducedIso:   c.induced,
				Homomorphism: c.homo,
			}
			for _, sem := range allSemantics {
				// The oracle first: if a hand-computed value is wrong the
				// failure message points here, not at an engine.
				if got := testutil.BruteCountSem(c.pattern, c.target, sem); got != wants[sem] {
					t.Fatalf("oracle under %v = %d, want %d (hand-computed)", sem, got, wants[sem])
				}
				countAllEngines(t, c.pattern, c.target, sem, wants[sem], c.name)
			}
		})
	}
}

// pathArc returns the 2-node graph with the single arc 0→1.
func pathArc() *Graph {
	b := NewBuilder(2, 1)
	b.AddNodes(2)
	b.AddEdge(0, 1, 0)
	return b.MustBuild()
}

// TestCountInvariantUnderRelabeling: enumeration counts must not depend
// on target node ids. Random relabelings exercise different orderings,
// domain layouts and candidate iteration orders; a count change reveals
// an ordering-dependent bug in internal/order or the domain filtering.
func TestCountInvariantUnderRelabeling(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		gp, gt := testutil.RandomInstance(seed, testutil.InstanceOptions{
			TargetNodes: 10, TargetEdges: 28, PatternNodes: 4, Extract: seed%2 == 0,
		})
		rng := rand.New(rand.NewSource(seed * 7919))
		for _, sem := range allSemantics {
			base := make(map[string]int64)
			for _, ec := range engineConfigs {
				opts := ec.opts
				opts.Semantics = sem
				n, err := Count(gp, gt, opts)
				if err != nil {
					t.Fatal(err)
				}
				base[ec.name] = n
			}
			for round := 0; round < 3; round++ {
				pgt := testutil.PermuteGraph(rng, gt)
				for _, ec := range engineConfigs {
					opts := ec.opts
					opts.Semantics = sem
					n, err := Count(gp, pgt, opts)
					if err != nil {
						t.Fatal(err)
					}
					if n != base[ec.name] {
						t.Errorf("seed %d round %d: %s under %v = %d on relabeled target, want %d",
							seed, round, ec.name, sem, n, base[ec.name])
					}
				}
			}
		}
	}
}

// TestSemanticsContainment checks the definitional ordering on every
// random instance: induced embeddings ⊆ non-induced embeddings ⊆
// homomorphisms, so the counts must be monotone.
func TestSemanticsContainment(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		gp, gt := testutil.RandomInstance(seed, testutil.InstanceOptions{
			TargetNodes: 9, TargetEdges: 26, PatternNodes: 4, Nasty: seed%3 == 0,
		})
		ind := testutil.BruteCountSem(gp, gt, graph.InducedIso)
		iso := testutil.BruteCountSem(gp, gt, graph.SubgraphIso)
		hom := testutil.BruteCountSem(gp, gt, graph.Homomorphism)
		if ind > iso || iso > hom {
			t.Fatalf("seed %d: containment violated: induced=%d iso=%d hom=%d", seed, ind, iso, hom)
		}
	}
}

// TestTargetDefaultSemantics: a session-level default applies to queries
// that don't choose a semantics and is overridden by ones that do —
// including an explicit Semantics: SubgraphIso, which is distinguishable
// from "unset" since the SemanticsUnset zero value was introduced
// (regression: it used to be silently replaced by the default, making a
// hom-default Target unqueryable under plain subgraph isomorphism).
func TestTargetDefaultSemantics(t *testing.T) {
	gp, gt := pathGraph(3), cycleGraph(3) // 6 iso / 0 induced / 12 hom
	tgt, err := NewTarget(gt, TargetOptions{DefaultSemantics: Homomorphism})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if n, err := tgt.Count(ctx, gp, Options{}); err != nil || n != 12 {
		t.Errorf("default semantics: got %d, %v; want 12 homs", n, err)
	}
	if n, err := tgt.Count(ctx, gp, Options{Semantics: SubgraphIso}); err != nil || n != 6 {
		t.Errorf("explicit SubgraphIso overrides default: got %d, %v; want 6 isos", n, err)
	}
	if n, err := tgt.Count(ctx, gp, Options{Semantics: InducedIso}); err != nil || n != 0 {
		t.Errorf("explicit InducedIso overrides default: got %d, %v; want 0", n, err)
	}
	if _, err := NewTarget(gt, TargetOptions{DefaultSemantics: Semantics(9)}); err == nil {
		t.Error("invalid DefaultSemantics accepted")
	}
	// The override must hold for every engine, not just the default one.
	for _, ec := range engineConfigs {
		opts := ec.opts
		opts.Semantics = SubgraphIso
		if n, err := tgt.Count(ctx, gp, opts); err != nil || n != 6 {
			t.Errorf("%s: explicit SubgraphIso on hom-default target: got %d, %v; want 6", ec.name, n, err)
		}
	}
}

// TestTargetDefaultWorkersExplicitSequential: Workers: 1 is the explicit
// spelling of "sequential" and must not be replaced by DefaultWorkers
// (only the zero value is). The sequential engine reports no per-worker
// breakdown, which is how the two paths are told apart.
func TestTargetDefaultWorkersExplicitSequential(t *testing.T) {
	gp, gt := pathGraph(3), cycleGraph(6)
	tgt, err := NewTarget(gt, TargetOptions{DefaultWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := tgt.Enumerate(ctx, gp, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.PerWorkerStates != nil {
		t.Errorf("Workers: 1 ran the parallel engine (%d workers) despite the explicit sequential request",
			len(res.PerWorkerStates))
	}
	res, err = tgt.Enumerate(ctx, gp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerWorkerStates) != 4 {
		t.Errorf("unset Workers: got %d per-worker entries, want the default pool of 4", len(res.PerWorkerStates))
	}
}

// TestEnumerateBatchItemsMixedSemantics: one batch over one shared pool
// answers patterns under different matching semantics; unset items fall
// back to the batch Options, then to the Target default.
func TestEnumerateBatchItemsMixedSemantics(t *testing.T) {
	gp, gt := pathGraph(3), cycleGraph(3) // 6 iso / 0 induced / 12 hom
	tgt, err := NewTarget(gt, TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	items := []BatchItem{
		{Pattern: gp, Semantics: SubgraphIso},
		{Pattern: gp, Semantics: InducedIso},
		{Pattern: gp, Semantics: Homomorphism},
		{Pattern: gp}, // falls back to the batch Options below
	}
	want := []int64{6, 0, 12, 12}
	for _, workers := range []int{1, 3} {
		res, err := tgt.EnumerateBatchItems(context.Background(), items,
			Options{Semantics: Homomorphism, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if r.Matches != want[i] {
				t.Errorf("workers=%d item %d: got %d matches, want %d", workers, i, r.Matches, want[i])
			}
		}
	}
}

// TestSemanticsString pins the names used in logs and CLI output.
func TestSemanticsString(t *testing.T) {
	for sem, want := range map[Semantics]string{
		SemanticsUnset: "unset",
		SubgraphIso:    "subgraph-iso",
		InducedIso:     "induced-iso",
		Homomorphism:   "homomorphism",
	} {
		if sem.String() != want {
			t.Errorf("%d.String() = %q, want %q", int32(sem), sem.String(), want)
		}
	}
}

package parsge

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"parsge/internal/datasets"
	"parsge/internal/domain"
	"parsge/internal/ri"
	"parsge/internal/testutil"
)

// kernelEngines are the engines the kernel differential battery sweeps:
// the RI family's best variant sequentially and through the
// work-stealing parallel engine (which inherits the kernel through the
// shared ri.Prepare/Feasible), plus the two independent baselines that
// got their own kernel rewires.
var kernelEngines = []struct {
	name string
	opts Options
}{
	{"RI-DS-SI-FC", Options{Algorithm: RIDSSIFC}},
	{"steal-RI-DS-SI-FC", Options{Algorithm: RIDSSIFC, Workers: 4, TaskGroupSize: 2}},
	{"VF2", Options{Algorithm: VF2}},
	{"LAD", Options{Algorithm: LAD}},
}

// TestKernelDifferential is the bitset-kernel acceptance battery: on 120
// random instances (the same four instance kinds as the cross-engine
// differential — plain, extracted, nasty, dense-labeled), every engine
// must return the brute-force oracle's count under BOTH kernels and all
// three semantics. A bitset row with a stale or missing bit loses or
// invents matches on some instance here; a divergence between the two
// kernels on the same engine localizes the bug to the kernel layer.
func TestKernelDifferential(t *testing.T) {
	kinds := []struct {
		name string
		opts testutil.InstanceOptions
	}{
		{"plain", testutil.InstanceOptions{TargetNodes: 9, TargetEdges: 24, PatternNodes: 4}},
		{"extract", testutil.InstanceOptions{TargetNodes: 9, TargetEdges: 24, PatternNodes: 4, Extract: true}},
		{"nasty", testutil.InstanceOptions{TargetNodes: 8, TargetEdges: 22, PatternNodes: 3, Nasty: true}},
		{"dense", testutil.InstanceOptions{TargetNodes: 7, TargetEdges: 30, PatternNodes: 4, NodeLabels: 2, Extract: true}},
	}
	kernels := []Kernel{KernelBitset, KernelSlice}
	const seedsPerKind = 30 // 4 kinds × 30 seeds = 120 instances per semantics
	for _, k := range kinds {
		for seed := int64(0); seed < seedsPerKind; seed++ {
			gp, gt := testutil.RandomInstance(seed, k.opts)
			for _, sem := range allSemantics {
				want := testutil.BruteCountSem(gp, gt, sem)
				for _, eng := range kernelEngines {
					for _, kern := range kernels {
						opts := eng.opts
						opts.Semantics = sem
						opts.Pruning.Kernel = kern
						got, err := Count(gp, gt, opts)
						if err != nil {
							t.Fatalf("%s/seed=%d: %s/%v under %v: %v", k.name, seed, eng.name, kern, sem, err)
						}
						if got != want {
							t.Errorf("%s/seed=%d: %s/%v under %v = %d, want %d",
								k.name, seed, eng.name, kern, sem, got, want)
						}
					}
				}
			}
		}
	}
}

// TestKernelDifferentialGoldenMotifs re-runs the hand-computed golden
// motif tables with the bitset kernel forced on every engine
// configuration of the differential suite (the default Auto already
// resolves to bitset on these tiny targets; forcing it removes any
// dependence on the resolution rule).
func TestKernelDifferentialGoldenMotifs(t *testing.T) {
	for _, c := range goldenMotifCases {
		t.Run(c.name, func(t *testing.T) {
			wants := map[Semantics]int64{
				SubgraphIso:  c.iso,
				InducedIso:   c.induced,
				Homomorphism: c.homo,
			}
			for _, sem := range allSemantics {
				for _, ec := range engineConfigs {
					opts := ec.opts
					opts.Semantics = sem
					opts.Pruning.Kernel = KernelBitset
					got, err := Count(c.pattern, c.target, opts)
					if err != nil {
						t.Fatalf("%s under %v: %v", ec.name, sem, err)
					}
					if got != wants[sem] {
						t.Errorf("%s under %v = %d, want %d", ec.name, sem, got, wants[sem])
					}
				}
			}
		})
	}
}

// TestKernelDifferentialAllocs pins the inner extend loop at zero
// allocations per embedding under the bitset kernel: a complete run on a
// fixed dense graph with over a thousand embeddings may only pay the
// constant per-run setup (searcher state), never an allocation that
// scales with matches or states. The bound is a ratio rather than an
// absolute so the pin stays green under -race instrumentation and
// testing-harness noise.
func TestKernelDifferentialAllocs(t *testing.T) {
	gp, gt := cliqueGraph(3), cliqueGraph(12) // 12·11·10 = 1320 embeddings
	prep, err := ri.Prepare(gp, gt, ri.Options{
		Variant:  ri.VariantRIDSSIFC,
		Kernel:   domain.KernelBitset,
		Schedule: domain.ScheduleFixed,
	})
	if err != nil {
		t.Fatal(err)
	}
	arena := ri.NewArena(gt.NumNodes())
	warm := prep.Run(ri.RunOptions{Arena: arena})
	if warm.Matches < 100 {
		t.Fatalf("fixed seed instance too easy: %d embeddings (want ≥ 100 for a meaningful pin)", warm.Matches)
	}
	per := testing.AllocsPerRun(5, func() {
		prep.Run(ri.RunOptions{Arena: arena})
	})
	perEmbedding := per / float64(warm.Matches)
	t.Logf("%d embeddings, %.1f allocs/run, %.5f allocs/embedding", warm.Matches, per, perEmbedding)
	if perEmbedding > 0.02 {
		t.Errorf("inner loop allocates: %.1f allocs/run over %d embeddings = %.4f allocs/embedding (want ≤ 0.02, i.e. constant per-run setup only)",
			per, warm.Matches, perEmbedding)
	}
}

// TestKernelFallbackAboveLimit pins the ResolveKernel contract: Auto
// resolves to bitset only when the target fits the dense-row threshold
// (inclusive) AND its rows are dense (128·arcs ≥ nodes²); forcing
// KernelBitset must be a silent no-op (identical counts, no error) when
// the target exceeds the threshold. Building a >2^14-node graph per test
// run is too slow, so this covers the resolution rule directly — it
// takes counts, not a graph — plus the engine-level nil-rows path via
// the same contract.
func TestKernelFallbackAboveLimit(t *testing.T) {
	const limit = 1 << 14
	denseArcs := func(n int) int { return (n*n + 127) / 128 } // the density line, rounded up
	if got := domain.ResolveKernel(domain.KernelAuto, limit, denseArcs(limit)); got != domain.KernelBitset {
		t.Errorf("ResolveKernel(Auto, 2^14, dense) = %v, want bitset (limit and density line are inclusive)", got)
	}
	if got := domain.ResolveKernel(domain.KernelAuto, limit+1, denseArcs(limit+1)); got != domain.KernelSlice {
		t.Errorf("ResolveKernel(Auto, 2^14+1, dense) = %v, want slice", got)
	}
	if got := domain.ResolveKernel(domain.KernelAuto, limit, denseArcs(limit)-1); got != domain.KernelSlice {
		t.Errorf("ResolveKernel(Auto, 2^14, just below the density line) = %v, want slice", got)
	}
	for _, k := range []domain.Kernel{domain.KernelBitset, domain.KernelSlice} {
		for _, size := range [][2]int{{1, 0}, {1, 1}, {limit, denseArcs(limit)}, {limit + 1, 0}} {
			if got := domain.ResolveKernel(k, size[0], size[1]); got != k {
				t.Errorf("ResolveKernel(%v, %d, %d) = %v, want explicit choice preserved", k, size[0], size[1], got)
			}
		}
	}
	for k, want := range map[Kernel]string{KernelAuto: "auto", KernelBitset: "bitset", KernelSlice: "slice"} {
		if got := fmt.Sprint(k); got != want {
			t.Errorf("Kernel(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

// TestKernelAutoPerCollection pins where the density line falls on the
// benchmark collections (corpus seed 1): the dense PPI and microbial
// targets keep the bitset rows, while every PDBSv1 molecular target past
// a few hundred nodes (~2.3 arcs per node and direction) stays on the
// slice paths and never builds a row.
func TestKernelAutoPerCollection(t *testing.T) {
	auto := func(g *Graph) Kernel { return domain.ResolveKernel(KernelAuto, g.NumNodes(), g.NumEdges()) }
	for _, name := range []string{"PPIS32", "GRAEMLIN32"} {
		c, err := datasets.ByName(name, datasets.Config{Scale: 0.03, Seed: 1, NumPatterns: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i, g := range c.Targets {
			if got := auto(g); got != KernelBitset {
				t.Errorf("%s target %d (%d nodes, %d arcs): Auto = %v, want bitset", name, i, g.NumNodes(), g.NumEdges(), got)
			}
		}
	}
	c := datasets.PDBSv1(datasets.Config{Scale: 0.5, Seed: 1, NumPatterns: 1})
	checked := 0
	for i, g := range c.Targets {
		if g.NumNodes() <= 300 {
			continue
		}
		checked++
		if got := auto(g); got != KernelSlice {
			t.Errorf("PDBSv1 target %d (%d nodes, %d arcs): Auto = %v, want slice", i, g.NumNodes(), g.NumEdges(), got)
		}
		if domain.RowsFor(KernelAuto, nil, g) != nil {
			t.Errorf("PDBSv1 target %d: RowsFor(Auto) built rows on a sparse target", i)
		}
	}
	if checked == 0 {
		t.Fatal("no PDBSv1 target above 300 nodes at scale 0.5")
	}
}

// TestKernelAutoAcrossDensityLine pushes one small target across the
// density line and back with ApplyUpdates. On both sides every engine's
// Auto-kernel count must match the brute-force oracle under all three
// semantics, the incrementally maintained index must equal a rebuild
// after each batch, and no rows may exist before the target first
// crosses into bitset territory.
func TestKernelAutoAcrossDensityLine(t *testing.T) {
	const n = 40 // density line: 128·m ≥ 1600, i.e. 13 arcs
	rng := rand.New(rand.NewSource(7))
	labels := make([]Label, n)
	for i := range labels {
		labels[i] = Label(rng.Intn(2))
	}
	// Start on an undirected path of 5 edges (10 arcs): slice side.
	var edges []Edge
	for v := int32(0); v < 5; v++ {
		edges = append(edges, Edge{From: v, To: v + 1}, Edge{From: v + 1, To: v})
	}
	tgt, err := NewTarget(graphFromEdges(t, labels, edges), TargetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	undirected := func(remove bool, pairs ...[2]int32) []EdgeUpdate {
		var ups []EdgeUpdate
		for _, p := range pairs {
			ups = append(ups, EdgeUpdate{From: p[0], To: p[1], Remove: remove}, EdgeUpdate{From: p[1], To: p[0], Remove: remove})
		}
		return ups
	}
	batches := [][]EdgeUpdate{
		undirected(false, [2]int32{5, 6}, [2]int32{6, 0}, [2]int32{2, 7}),                // 16 arcs: bitset
		undirected(false, [2]int32{7, 8}, [2]int32{8, 2}, [2]int32{1, 3}),                // 22 arcs: bitset
		undirected(true, [2]int32{7, 8}, [2]int32{8, 2}, [2]int32{1, 3}, [2]int32{2, 7}), // 14 arcs: bitset
		undirected(true, [2]int32{6, 0}),                                                 // 12 arcs: slice
	}
	check := func(step int) Kernel {
		g := tgt.Graph()
		kern := domain.ResolveKernel(KernelAuto, g.NumNodes(), g.NumEdges())
		patterns := []*Graph{testutil.ExtractPattern(rng, g, 3), testutil.ExtractPattern(rng, g, 4)}
		for _, gp := range patterns {
			for _, sem := range allSemantics {
				want := testutil.BruteCountSem(gp, g, sem)
				for _, eng := range kernelEngines {
					opts := eng.opts
					opts.Semantics = sem
					got, err := tgt.Count(context.Background(), gp, opts)
					if err != nil {
						t.Fatalf("step %d (%v side): %s under %v: %v", step, kern, eng.name, sem, err)
					}
					if got != want {
						t.Errorf("step %d (%v side): %s under %v = %d, want %d\npattern=%v\ntarget=%v",
							step, kern, eng.name, sem, got, want, gp.Edges(), g.Edges())
					}
				}
			}
		}
		return kern
	}
	if got := check(0); got != KernelSlice {
		t.Fatalf("initial target resolves to %v, want slice", got)
	}
	if tgt.state.Load().index.HasRows() {
		t.Fatal("Auto queries built bitset rows on a target below the density line")
	}
	want := []Kernel{KernelBitset, KernelBitset, KernelBitset, KernelSlice}
	for i, ups := range batches {
		if _, err := tgt.ApplyUpdates(context.Background(), ups); err != nil {
			t.Fatal(err)
		}
		edges = applyOracle(edges, ups)
		if got := check(i + 1); got != want[i] {
			t.Fatalf("after batch %d (%d arcs): Auto = %v, want %v", i, tgt.Graph().NumEdges(), got, want[i])
		}
		if want[i] == KernelBitset && !tgt.state.Load().index.HasRows() {
			t.Errorf("after batch %d: Auto queries above the density line left no bitset rows", i)
		}
		rebuilt, err := NewTarget(graphFromEdges(t, labels, edges), TargetOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rebuilt.state.Load().index.Rows(rebuilt.Graph())
		if ok, diff := domain.IndexEqual(tgt.state.Load().index, rebuilt.state.Load().index); !ok {
			t.Fatalf("after batch %d: incremental index differs from rebuild: %s", i, diff)
		}
	}
}

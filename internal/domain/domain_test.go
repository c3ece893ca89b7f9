package domain

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"parsge/internal/datasets"
	"parsge/internal/graph"
)

// buildGraph constructs a graph from labels and directed edges.
func buildGraph(labels []graph.Label, edges [][3]int32) *graph.Graph {
	b := &graph.Builder{}
	for _, l := range labels {
		b.AddNode(l)
	}
	for _, e := range edges {
		b.AddEdge(e[0], e[1], graph.Label(e[2]))
	}
	return b.MustBuild()
}

func TestInitialLabelFilter(t *testing.T) {
	gp := buildGraph([]graph.Label{1}, nil)
	gt := buildGraph([]graph.Label{1, 2, 1}, nil)
	d := Compute(gp, gt, Options{})
	dom := d.Of(0)
	if !dom.Test(0) || dom.Test(1) || !dom.Test(2) {
		t.Fatalf("label filter wrong: %v", dom)
	}
}

func TestInitialDegreeFilter(t *testing.T) {
	// Pattern node has outdegree 1; target node 1 has outdegree 0.
	gp := buildGraph([]graph.Label{0, 0}, [][3]int32{{0, 1, 0}})
	gt := buildGraph([]graph.Label{0, 0, 0}, [][3]int32{{0, 1, 0}, {2, 0, 0}})
	d := Compute(gp, gt, Options{SkipAC: true})
	if d.Of(0).Test(1) {
		t.Error("node with outdegree 0 should not be candidate for pattern node with outdegree 1")
	}
	if !d.Of(0).Test(0) || !d.Of(0).Test(2) {
		t.Errorf("degree filter too strict: %v", d.Of(0))
	}
	// Pattern node 1 needs indegree >= 1: only target nodes 0 and 1 qualify.
	if d.Of(1).Test(2) {
		t.Error("node with indegree 0 kept for pattern node with indegree 1")
	}
}

func TestArcConsistencyPrunes(t *testing.T) {
	// Pattern: A→B. Target: A→B, plus an isolated A-labeled node with a
	// high-degree padding so the degree filter alone keeps it.
	gp := buildGraph([]graph.Label{1, 2}, [][3]int32{{0, 1, 0}})
	gt := buildGraph(
		[]graph.Label{1, 2, 1, 3},
		[][3]int32{{0, 1, 0}, {2, 3, 0}}, // node 2 is A but points at label 3
	)
	d := Compute(gp, gt, Options{})
	if d.Of(0).Test(2) {
		t.Error("AC should drop target 2: its only out-neighbor has wrong label")
	}
	if !d.Of(0).Test(0) {
		t.Error("AC dropped the valid candidate")
	}
}

func TestArcConsistencyEdgeLabels(t *testing.T) {
	// Pattern edge labeled 7; target has same structure but label 8.
	gp := buildGraph([]graph.Label{0, 0}, [][3]int32{{0, 1, 7}})
	gt := buildGraph([]graph.Label{0, 0}, [][3]int32{{0, 1, 8}})
	d := Compute(gp, gt, Options{})
	if !d.AnyEmpty() {
		t.Fatalf("edge-label mismatch should empty a domain: %v", d)
	}
}

func TestArcConsistencyFixpointStrongerThanOnePass(t *testing.T) {
	// Chain pattern a→b→c vs target chain that breaks only at the far
	// end; a single pass starting from the front may keep candidates a
	// fixpoint removes. Construct: pattern 0→1→2 (labels x,x,y). Target:
	// 0→1→2 with labels x,x,z (no y at the end).
	gp := buildGraph([]graph.Label{1, 1, 2}, [][3]int32{{0, 1, 0}, {1, 2, 0}})
	gt := buildGraph([]graph.Label{1, 1, 3}, [][3]int32{{0, 1, 0}, {1, 2, 0}})
	fix := Compute(gp, gt, Options{})
	if !fix.AnyEmpty() {
		t.Fatalf("fixpoint AC should prove unsatisfiable: %v", fix)
	}
	one := Compute(gp, gt, Options{ACPasses: 1})
	// One pass is allowed to be weaker, but never stronger.
	for vp := int32(0); vp < 3; vp++ {
		if !fix.Of(vp).Subset(one.Of(vp)) {
			t.Error("fixpoint domains must be subsets of single-pass domains")
		}
	}
}

func TestForwardCheckRemovesSingletonTargets(t *testing.T) {
	// Pattern: two isolated nodes, labels A and A. Target: nodes A, A.
	// Manually shrink one domain to a singleton and check propagation.
	gp := buildGraph([]graph.Label{1, 1}, nil)
	gt := buildGraph([]graph.Label{1, 1}, nil)
	d := Compute(gp, gt, Options{})
	d.Of(0).Clear(1) // pin pattern 0 to target 0
	if !d.ForwardCheck() {
		t.Fatal("satisfiable instance reported unsat")
	}
	if d.Of(1).Test(0) {
		t.Error("forward checking did not remove pinned target from other domain")
	}
	if d.Of(1).Count() != 1 || d.Of(1).First() != 1 {
		t.Errorf("domain of node 1 = %v, want {1}", d.Of(1))
	}
}

func TestForwardCheckCascades(t *testing.T) {
	// Three pattern nodes, three targets; pin 0→0, which must cascade:
	// after removing 0 everywhere, suppose D(1)={0,1}: becomes {1},
	// singleton; then D(2)={0,1,2} loses 0 and 1 → {2}.
	gp := buildGraph([]graph.Label{1, 1, 1}, nil)
	gt := buildGraph([]graph.Label{1, 1, 1}, nil)
	d := Compute(gp, gt, Options{})
	d.Of(0).Clear(1)
	d.Of(0).Clear(2) // D(0)={0}
	d.Of(1).Clear(2) // D(1)={0,1}
	if !d.ForwardCheck() {
		t.Fatal("satisfiable instance reported unsat")
	}
	if d.Of(1).Count() != 1 || d.Of(1).First() != 1 {
		t.Errorf("D(1) = %v, want {1}", d.Of(1))
	}
	if d.Of(2).Count() != 1 || d.Of(2).First() != 2 {
		t.Errorf("D(2) = %v, want {2}", d.Of(2))
	}
}

func TestForwardCheckDetectsConflict(t *testing.T) {
	// Two pattern nodes pinned to the same single target.
	gp := buildGraph([]graph.Label{1, 1}, nil)
	gt := buildGraph([]graph.Label{1}, nil)
	d := Compute(gp, gt, Options{})
	if d.ForwardCheck() {
		t.Fatal("two nodes pinned to one target should be unsatisfiable")
	}
}

func TestForwardCheckEmptyDomain(t *testing.T) {
	gp := buildGraph([]graph.Label{1}, nil)
	gt := buildGraph([]graph.Label{2}, nil)
	d := Compute(gp, gt, Options{})
	if !d.AnyEmpty() {
		t.Fatal("expected empty domain")
	}
}

func TestSizesAndTotal(t *testing.T) {
	gp := buildGraph([]graph.Label{0, 0}, nil)
	gt := buildGraph([]graph.Label{0, 0, 0}, nil)
	d := Compute(gp, gt, Options{})
	sizes := d.Sizes()
	if len(sizes) != 2 || sizes[0] != 3 || sizes[1] != 3 {
		t.Errorf("Sizes = %v", sizes)
	}
	if d.TotalSize() != 6 {
		t.Errorf("TotalSize = %d", d.TotalSize())
	}
	if d.NumPattern() != 2 {
		t.Errorf("NumPattern = %d", d.NumPattern())
	}
}

func TestClone(t *testing.T) {
	gp := buildGraph([]graph.Label{0}, nil)
	gt := buildGraph([]graph.Label{0, 0}, nil)
	d := Compute(gp, gt, Options{})
	c := d.Clone()
	c.Of(0).Clear(0)
	if !d.Of(0).Test(0) {
		t.Fatal("Clone aliases original")
	}
}

// randomInstance builds a random labeled pattern/target pair where the
// pattern is an actual subgraph of the target, so at least one match
// exists and domains must stay nonempty around it.
func randomInstance(seed int64) (gp, gt *graph.Graph, embed []int32) {
	rng := rand.New(rand.NewSource(seed))
	nt := 8 + rng.Intn(10)
	bt := &graph.Builder{}
	for i := 0; i < nt; i++ {
		bt.AddNode(graph.Label(rng.Intn(3)))
	}
	for i := 0; i < nt*3; i++ {
		u, v := int32(rng.Intn(nt)), int32(rng.Intn(nt))
		if u != v {
			bt.AddEdge(u, v, graph.Label(rng.Intn(2)))
		}
	}
	gt = bt.MustBuild()

	np := 2 + rng.Intn(4)
	perm := rng.Perm(nt)[:np]
	embed = make([]int32, np)
	for i, p := range perm {
		embed[i] = int32(p)
	}
	bp := &graph.Builder{}
	for _, tv := range embed {
		bp.AddNode(gt.NodeLabel(tv))
	}
	for i := 0; i < np; i++ {
		for j := 0; j < np; j++ {
			if i == j {
				continue
			}
			if l, ok := gt.EdgeLabel(embed[i], embed[j]); ok && rng.Intn(2) == 0 {
				bp.AddEdge(int32(i), int32(j), l)
			}
		}
	}
	gp = bp.MustBuild()
	return gp, gt, embed
}

// TestQuickDomainsSound: domains never exclude the known embedding; this
// is the soundness property that guarantees RI-DS variants enumerate the
// same matches as RI.
func TestQuickDomainsSound(t *testing.T) {
	f := func(seed int64) bool {
		gp, gt, embed := randomInstance(seed)
		d := Compute(gp, gt, Options{})
		for vp, vt := range embed {
			if !d.Of(int32(vp)).Test(int(vt)) {
				return false
			}
		}
		// Forward checking must also preserve the embedding unless it
		// proves unsat — and it cannot, since an embedding exists.
		if !d.ForwardCheck() {
			return false
		}
		for vp, vt := range embed {
			if !d.Of(int32(vp)).Test(int(vt)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickACMonotone: more AC passes can only shrink domains.
func TestQuickACMonotone(t *testing.T) {
	f := func(seed int64) bool {
		gp, gt, _ := randomInstance(seed)
		one := Compute(gp, gt, Options{ACPasses: 1})
		two := Compute(gp, gt, Options{ACPasses: 2})
		fix := Compute(gp, gt, Options{})
		for vp := int32(0); vp < int32(gp.NumNodes()); vp++ {
			if !two.Of(vp).Subset(one.Of(vp)) || !fix.Of(vp).Subset(two.Of(vp)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCompute(b *testing.B) {
	gp, gt, _ := randomInstance(7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Compute(gp, gt, Options{})
	}
}

// undirected adds both arcs of an undirected NoLabel edge to an edge
// list.
func undirected(pairs [][2]int32) [][3]int32 {
	var out [][3]int32
	for _, p := range pairs {
		out = append(out, [3]int32{p[0], p[1], 0}, [3]int32{p[1], p[0], 0})
	}
	return out
}

// TestGoldenDomainSizes pins exact per-node domain sizes on small
// fixtures for every (semantics, filter) combination that matters —
// the golden tables proving each filter actually shrinks domains:
//
//   - nlfStar: the multiset NLF bound (a candidate with only one
//     label-1 neighbor cannot host a pattern node needing two) prunes
//     under the injective semantics and correctly does NOT prune under
//     homomorphism, where the two pattern neighbors may collapse;
//   - homBound: the set-containment NLF bound prunes hom candidates
//     lacking a needed labeled-neighbor kind even with AC disabled —
//     the ROADMAP's "sound hom label bound" over label-only domains;
//   - inducedP3K3: the induced non-edge propagation wipes the domains
//     of P3-into-K3 (no independent pair exists in a clique), proving
//     unsatisfiability before any search;
//   - loops: the unary self-loop filters (label-compatible self-loop
//     required under every semantics; extra target self-loops rejected
//     under induced).
func TestGoldenDomainSizes(t *testing.T) {
	// nlfStar: pattern 0(L0)–1(L1), 0–2(L1); target a0(L0)–{b1,c1 (L1)},
	// d3(L0)–{e4 (L1), f5,g6 (L2)}.
	nlfStarP := buildGraph([]graph.Label{0, 1, 1}, undirected([][2]int32{{0, 1}, {0, 2}}))
	nlfStarT := buildGraph([]graph.Label{0, 1, 1, 0, 1, 2, 2},
		undirected([][2]int32{{0, 1}, {0, 2}, {3, 4}, {3, 5}, {3, 6}}))

	// homBound: pattern arc 0(L0)→1(L1); target h0(L0)→i1(L2),
	// j2(L0)→k3(L1).
	homBoundP := buildGraph([]graph.Label{0, 1}, [][3]int32{{0, 1, 0}})
	homBoundT := buildGraph([]graph.Label{0, 2, 0, 1}, [][3]int32{{0, 1, 0}, {2, 3, 0}})

	// inducedP3K3: path 0–1–2 into the triangle.
	p3 := buildGraph([]graph.Label{0, 0, 0}, undirected([][2]int32{{0, 1}, {1, 2}}))
	k3 := buildGraph([]graph.Label{0, 0, 0}, undirected([][2]int32{{0, 1}, {1, 2}, {0, 2}}))

	// loops: single pattern node without a self-loop; target node 1
	// carries one.
	plain := buildGraph([]graph.Label{0}, nil)
	looped := buildGraph([]graph.Label{0}, [][3]int32{{0, 0, 0}})
	loopT := buildGraph([]graph.Label{0, 0}, [][3]int32{{1, 1, 0}})

	cases := []struct {
		name   string
		gp, gt *graph.Graph
		opts   Options
		want   []int
	}{
		// The multiset bound prunes d3 (one L1 neighbor, two needed),
		// and AC then drops e4 (its only L0 neighbor left the domain).
		{"nlfStar/iso/filters", nlfStarP, nlfStarT, Options{Semantics: graph.SubgraphIso}, []int{1, 2, 2}},
		{"nlfStar/iso/noNLF", nlfStarP, nlfStarT, Options{Semantics: graph.SubgraphIso, SkipNLF: true}, []int{2, 3, 3}},
		{"nlfStar/induced/filters", nlfStarP, nlfStarT, Options{Semantics: graph.InducedIso}, []int{1, 2, 2}},
		// Homomorphism: the two L1 pattern nodes may share e4, so d3
		// must stay — set containment, not multiset domination.
		{"nlfStar/hom/filters", nlfStarP, nlfStarT, Options{Semantics: graph.Homomorphism}, []int{2, 3, 3}},

		// With AC off and NLF off, hom domains are label-only; NLF
		// restores the sound neighborhood-label bound.
		{"homBound/hom/labelOnly", homBoundP, homBoundT, Options{Semantics: graph.Homomorphism, SkipAC: true, SkipNLF: true}, []int{2, 1}},
		{"homBound/hom/nlf", homBoundP, homBoundT, Options{Semantics: graph.Homomorphism, SkipAC: true}, []int{1, 1}},

		// Induced non-edge propagation proves P3-into-K3 unsatisfiable;
		// without it the domains stay full.
		{"inducedP3K3/induced/filters", p3, k3, Options{Semantics: graph.InducedIso}, []int{0, 0, 0}},
		{"inducedP3K3/induced/noIAC", p3, k3, Options{Semantics: graph.InducedIso, SkipInducedAC: true}, []int{3, 3, 3}},
		{"inducedP3K3/iso/filters", p3, k3, Options{Semantics: graph.SubgraphIso}, []int{3, 3, 3}},

		// Self-loop unary filters: a pattern self-loop needs a target
		// self-loop under every semantics; under induced the absence of
		// a pattern self-loop forbids one.
		{"loops/iso/plain", plain, loopT, Options{Semantics: graph.SubgraphIso}, []int{2}},
		{"loops/induced/plain", plain, loopT, Options{Semantics: graph.InducedIso}, []int{1}},
		{"loops/iso/looped", looped, loopT, Options{Semantics: graph.SubgraphIso}, []int{1}},
		{"loops/hom/looped", looped, loopT, Options{Semantics: graph.Homomorphism}, []int{1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := Compute(c.gp, c.gt, c.opts)
			got := d.Sizes()
			if len(got) != len(c.want) {
				t.Fatalf("sizes = %v, want %v", got, c.want)
			}
			for i := range got {
				if got[i] != c.want[i] {
					t.Fatalf("sizes = %v, want %v", got, c.want)
				}
			}
		})
	}
}

// TestQuickFiltersMonotone: the NLF filter and the induced non-edge
// propagation may only shrink domains relative to their disabled
// configurations, under every semantics.
func TestQuickFiltersMonotone(t *testing.T) {
	sems := []graph.Semantics{graph.SubgraphIso, graph.InducedIso, graph.Homomorphism}
	f := func(seed int64) bool {
		gp, gt, _ := randomInstance(seed)
		for _, sem := range sems {
			full := Compute(gp, gt, Options{Semantics: sem})
			noNLF := Compute(gp, gt, Options{Semantics: sem, SkipNLF: true})
			noIAC := Compute(gp, gt, Options{Semantics: sem, SkipInducedAC: true})
			for vp := int32(0); vp < int32(gp.NumNodes()); vp++ {
				if !full.Of(vp).Subset(noNLF.Of(vp)) || !full.Of(vp).Subset(noIAC.Of(vp)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestIndexSignaturesMatchOnTheFly: Compute with and without an Index
// must produce identical domains — the Index only precomputes.
func TestIndexSignaturesMatchOnTheFly(t *testing.T) {
	sems := []graph.Semantics{graph.SubgraphIso, graph.InducedIso, graph.Homomorphism}
	for seed := int64(0); seed < 40; seed++ {
		gp, gt, _ := randomInstance(seed)
		ix := NewIndex(gt)
		for _, sem := range sems {
			with := Compute(gp, gt, Options{Semantics: sem, Index: ix})
			without := Compute(gp, gt, Options{Semantics: sem})
			for vp := int32(0); vp < int32(gp.NumNodes()); vp++ {
				if !with.Of(vp).Equal(without.Of(vp)) {
					t.Fatalf("seed %d %v node %d: indexed %v vs scan %v",
						seed, sem, vp, with.Of(vp), without.Of(vp))
				}
			}
		}
	}
}

// ------------------------------------------------------------------
// Adaptive schedule and compact NLF tests.

// TestGoldenSchedulePlans pins the adaptive scheduler's decisions — and
// the staged domain-size trace of the resulting pipeline — on the first
// instance of a dense (PPIS32) and a sparse (PDBSv1) bench collection
// under every semantics. A heuristic change shows up here as a
// reviewable golden diff instead of a silent behavior shift.
func TestGoldenSchedulePlans(t *testing.T) {
	cfg := datasets.Config{Scale: 0.012, Seed: 7}
	golden := map[string][]string{
		// PPIS32: 32 uniform labels (high entropy) and a dense target —
		// Auto keeps NLF, caps AC at one pass, and (under induced)
		// keeps the non-edge propagation.
		"PPIS32": {
			"subgraph-iso: plan=nlf+ac:adaptive:1 after-unary=25 final=25",
			"induced-iso: plan=nlf+ac:adaptive:1+inducedAC after-unary=25 final=4",
			"homomorphism: plan=nlf+ac:adaptive:1 after-unary=25 final=25",
		},
		// PDBSv1: a molecular target with few heavy labels is still
		// label-rich enough for the capped schedule, but too sparse for
		// the induced non-edge sweep to pay — Auto gates it off.
		"PDBSv1": {
			"subgraph-iso: plan=nlf+ac:adaptive:1 after-unary=40 final=35",
			"induced-iso: plan=nlf+ac:adaptive:1 after-unary=40 final=35",
			"homomorphism: plan=nlf+ac:adaptive:1 after-unary=40 final=35",
		},
	}
	for _, name := range []string{"PPIS32", "PDBSv1"} {
		coll, err := datasets.ByName(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		inst := coll.Instances()[0]
		ix := NewIndex(inst.Target)
		var got []string
		for _, sem := range []graph.Semantics{graph.SubgraphIso, graph.InducedIso, graph.Homomorphism} {
			opts := autoTune(Options{Index: ix, Semantics: sem}, inst.Pattern, inst.Target)
			_, st := ComputeWithStats(inst.Pattern, inst.Target, opts)
			got = append(got, fmt.Sprintf("%v: plan=%v after-unary=%d final=%d",
				sem, st.Plan, st.AfterUnary, st.Final))
		}
		for i, line := range got {
			if line != golden[name][i] {
				t.Errorf("%s line %d:\n  got  %s\n  want %s", name, i, line, golden[name][i])
			}
		}
	}
}

// richInstance builds a random instance over a 5×3 label alphabet —
// more than compactBuckets distinct NLF keys, so compact signatures
// exercise the hashed (inexact-but-sound) bucket assignment.
func richInstance(seed int64) (gp, gt *graph.Graph, embed []int32) {
	rng := rand.New(rand.NewSource(seed))
	nt := 10 + rng.Intn(8)
	bt := &graph.Builder{}
	for i := 0; i < nt; i++ {
		bt.AddNode(graph.Label(rng.Intn(5)))
	}
	for i := 0; i < nt*4; i++ {
		u, v := int32(rng.Intn(nt)), int32(rng.Intn(nt))
		if u != v {
			bt.AddEdge(u, v, graph.Label(rng.Intn(3)))
		}
	}
	gt = bt.MustBuild()
	np := 2 + rng.Intn(4)
	perm := rng.Perm(nt)[:np]
	embed = make([]int32, np)
	for i, p := range perm {
		embed[i] = int32(p)
	}
	bp := &graph.Builder{}
	for _, tv := range embed {
		bp.AddNode(gt.NodeLabel(tv))
	}
	for i := 0; i < np; i++ {
		for j := 0; j < np; j++ {
			if i != j {
				if l, ok := gt.EdgeLabel(embed[i], embed[j]); ok && rng.Intn(2) == 0 {
					bp.AddEdge(int32(i), int32(j), l)
				}
			}
		}
	}
	return bp.MustBuild(), gt, embed
}

// TestCompactNLFSoundSuperset: compact-NLF domains must contain the
// exact-NLF domains (bucketing only coarsens the test) and must keep
// every known embedding — the soundness contract of the compact
// representation, under every semantics, on alphabets both below
// (perfect assignment) and above (hashed) the bucket count.
func TestCompactNLFSoundSuperset(t *testing.T) {
	sems := []graph.Semantics{graph.SubgraphIso, graph.InducedIso, graph.Homomorphism}
	for seed := int64(0); seed < 40; seed++ {
		var gp, gt *graph.Graph
		var embed []int32
		if seed%2 == 0 {
			gp, gt, embed = randomInstance(seed) // 3×2 alphabet: perfect assignment
		} else {
			gp, gt, embed = richInstance(seed) // 5×3 alphabet: hashed buckets
		}
		exact := NewIndexMode(gt, NLFExact)
		compact := NewIndexMode(gt, NLFCompact)
		if exact.CompactNLF() || !compact.CompactNLF() {
			t.Fatal("index mode not honored")
		}
		for _, sem := range sems {
			de := Compute(gp, gt, Options{Semantics: sem, Index: exact})
			dc := Compute(gp, gt, Options{Semantics: sem, Index: compact})
			for vp := int32(0); vp < int32(gp.NumNodes()); vp++ {
				if !de.Of(vp).Subset(dc.Of(vp)) {
					t.Fatalf("seed %d %v node %d: compact domain lost exact candidates", seed, sem, vp)
				}
			}
			if compact.NLFExactFallback() {
				for vp := int32(0); vp < int32(gp.NumNodes()); vp++ {
					if !de.Of(vp).Equal(dc.Of(vp)) {
						t.Fatalf("seed %d %v node %d: perfect bucket assignment not exact", seed, sem, vp)
					}
				}
			}
			// The extracted mapping is a valid embedding under non-induced
			// subgraph isomorphism only (dropped pattern edges leave target
			// edges between images, which induced matching forbids).
			if sem == graph.SubgraphIso {
				for vp, vt := range embed {
					if !dc.Of(int32(vp)).Test(int(vt)) {
						t.Fatalf("seed %d %v: compact domains exclude the known embedding", seed, sem)
					}
				}
			}
		}
	}
}

// TestCompactNLFMemory: the compact representation must use less
// signature memory than the exact one on a dense-enough target, and the
// gap must grow with the edge count (constant per node vs O(edges)).
func TestCompactNLFMemory(t *testing.T) {
	_, gt, _ := richInstance(1)
	exact := NewIndexMode(gt, NLFExact)
	compact := NewIndexMode(gt, NLFCompact)
	if compact.NLFMemoryBytes() >= exact.NLFMemoryBytes() {
		t.Errorf("compact NLF uses %d bytes, exact %d — no reduction",
			compact.NLFMemoryBytes(), exact.NLFMemoryBytes())
	}
}

// TestAutoTuneRespectsExplicitKnobs: ablation knobs the caller set
// survive Auto resolution (a skipped filter stays skipped, a positive
// AC cap is kept), and on a label-rich target Auto caps AC at one pass.
func TestAutoTuneRespectsExplicitKnobs(t *testing.T) {
	gp, gt, _ := richInstance(3) // 5 labels: label-rich
	tuned := autoTune(Options{Semantics: graph.SubgraphIso}, gp, gt)
	if tuned.SkipNLF || tuned.ACPasses != 1 {
		t.Errorf("label-rich target: want NLF + 1-pass AC, got %+v", tuned)
	}
	tuned = autoTune(Options{Semantics: graph.SubgraphIso, SkipNLF: true, ACPasses: 3}, gp, gt)
	if !tuned.SkipNLF || tuned.ACPasses != 3 {
		t.Errorf("explicit knobs overridden: %+v", tuned)
	}
	// Unlabeled target: zero entropy, so NLF is dropped and AC runs to
	// fixpoint.
	b := &graph.Builder{}
	b.AddNodes(8)
	for i := int32(0); i < 7; i++ {
		b.AddEdge(i, i+1, 0)
	}
	plain := b.MustBuild()
	tuned = autoTune(Options{Semantics: graph.SubgraphIso}, gp, plain)
	if !tuned.SkipNLF || tuned.ACPasses != 0 {
		t.Errorf("label-poor target: want no NLF + fixpoint AC, got %+v", tuned)
	}
}

// TestIndexSharedConcurrently: one Index (exact and compact) serving
// many concurrent Compute calls across semantics — the sharing pattern
// of concurrent Target sessions — must be data-race free (run under
// -race) and deterministic.
func TestIndexSharedConcurrently(t *testing.T) {
	gp, gt, _ := richInstance(5)
	for _, mode := range []NLFMode{NLFExact, NLFCompact} {
		ix := NewIndexMode(gt, mode)
		sems := []graph.Semantics{graph.SubgraphIso, graph.InducedIso, graph.Homomorphism}
		want := make([]int, len(sems))
		for i, sem := range sems {
			want[i] = Compute(gp, gt, Options{Semantics: sem, Index: ix}).TotalSize()
		}
		done := make(chan error, 12)
		for g := 0; g < 12; g++ {
			go func(g int) {
				sem := sems[g%len(sems)]
				opts := autoTune(Options{Semantics: sem, Index: ix}, gp, gt)
				Compute(gp, gt, opts) // Auto plan: races on ix.stats would trip -race
				got := Compute(gp, gt, Options{Semantics: sem, Index: ix}).TotalSize()
				if got != want[g%len(sems)] {
					done <- fmt.Errorf("goroutine %d: size %d, want %d", g, got, want[g%len(sems)])
					return
				}
				done <- nil
			}(g)
		}
		for g := 0; g < 12; g++ {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestAdaptiveACEscalation: the second-stage rule in action. The target
// is label-rich (two balanced labels), so autoTune caps AC at one
// adaptive pass — but the instance is built so that the first sweep
// leaves the domains large (mean well above acEscalateMeanDomain) while
// still pruning something: a set of "trap" A-nodes each with a private
// B-successor that the unary degree filter excludes from the middle
// domain. NLF cannot see the trap (the B-successor exists), only arc
// consistency can, so pass 1 changes the domains, the measured mean
// stays large, and the cap must be lifted to fixpoint — with the
// escalated result equal to a plain fixpoint run.
func TestAdaptiveACEscalation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const core, traps = 60, 12
	b := &graph.Builder{}
	for i := 0; i < core; i++ {
		b.AddNode(graph.Label(i % 2)) // even = A(0), odd = B(1)
	}
	for i := 0; i < traps; i++ {
		b.AddNode(0) // trap: label A
	}
	for i := 0; i < traps; i++ {
		b.AddNode(1) // sink: label B, will have out-degree 0
	}
	// Dense bipartite-ish core: edges only between different labels.
	for v := 0; v < core; v++ {
		for k := 0; k < 12; k++ {
			w := rng.Intn(core)
			if w%2 != v%2 {
				b.AddEdge(int32(v), int32(w), graph.NoLabel)
			}
		}
	}
	// Each trap's only out-edge goes to its private B sink; the sink has
	// no out-edges, so it is excluded from the middle domain by the
	// unary degree filter.
	for i := 0; i < traps; i++ {
		b.AddEdge(int32(core+i), int32(core+traps+i), graph.NoLabel)
	}
	gt := b.MustBuild()

	// Pattern: directed path A -> B -> A.
	pb := &graph.Builder{}
	pb.AddNode(0)
	pb.AddNode(1)
	pb.AddNode(0)
	pb.AddEdge(0, 1, graph.NoLabel)
	pb.AddEdge(1, 2, graph.NoLabel)
	gp := pb.MustBuild()

	opts := autoTune(Options{Semantics: graph.SubgraphIso}, gp, gt)
	if !opts.ACAdaptive || opts.ACPasses != 1 {
		t.Fatalf("autoTune did not choose the adaptive one-pass cap: %+v", opts)
	}
	d, st := ComputeWithStats(gp, gt, opts)
	if !st.Plan.ACAdaptive {
		t.Fatalf("plan does not report the adaptive cap: %v", st.Plan)
	}
	if st.Plan.ACPasses != 0 {
		t.Fatalf("large post-pass domains did not escalate to fixpoint: %v (after-pass1 %d over %d nodes)",
			st.Plan, st.AfterPass1, gp.NumNodes())
	}
	if st.AfterPass1 == 0 || st.AfterPass1 > st.AfterUnary || st.Final > st.AfterPass1 {
		t.Fatalf("staged sizes inconsistent: unary=%d pass1=%d final=%d", st.AfterUnary, st.AfterPass1, st.Final)
	}
	if got := st.Plan.String(); got != "nlf+ac:adaptive:fixpoint" {
		t.Fatalf("plan string = %q", got)
	}
	// The escalated run must land on the plain fixpoint domains.
	df, fst := ComputeWithStats(gp, gt, Options{Semantics: graph.SubgraphIso})
	if fst.Plan.ACAdaptive || fst.Plan.ACPasses != 0 {
		t.Fatalf("reference run unexpectedly adaptive: %v", fst.Plan)
	}
	for vp := int32(0); vp < int32(gp.NumNodes()); vp++ {
		if !d.Of(vp).Equal(df.Of(vp)) {
			t.Fatalf("node %d: escalated domains differ from the fixpoint", vp)
		}
	}
	// An explicit one-pass cap is a caller demand, never adaptive.
	_, est := ComputeWithStats(gp, gt, Options{Semantics: graph.SubgraphIso, ACPasses: 1})
	if est.Plan.ACAdaptive || est.Plan.ACPasses != 1 {
		t.Fatalf("explicit ACPasses=1 was made adaptive: %v", est.Plan)
	}
}

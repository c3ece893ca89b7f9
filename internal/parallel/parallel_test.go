package parallel

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"parsge/internal/domain"
	"parsge/internal/graph"
	"parsge/internal/ri"
	"parsge/internal/testutil"
)

func prepared(t testing.TB, gp, gt *graph.Graph, v ri.Variant) *ri.Prepared {
	t.Helper()
	p, err := ri.Prepare(gp, gt, ri.Options{Variant: v})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// mediumInstance builds a deterministic instance with a non-trivial number
// of matches for scheduling tests.
func mediumInstance(t testing.TB) (*graph.Graph, *graph.Graph) {
	t.Helper()
	gp, gt := testutil.RandomInstance(17, testutil.InstanceOptions{
		TargetNodes:  60,
		TargetEdges:  420,
		PatternNodes: 5,
		NodeLabels:   2,
		Extract:      true,
	})
	return gp, gt
}

func TestMatchesSequentialAcrossWorkers(t *testing.T) {
	gp, gt := mediumInstance(t)
	seq, err := ri.Enumerate(gp, gt, ri.Options{Variant: ri.VariantRIDSSIFC}, ri.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Matches == 0 {
		t.Fatal("test instance has no matches; pick another seed")
	}
	for _, workers := range []int{1, 2, 3, 4, 8, 16} {
		p := prepared(t, gp, gt, ri.VariantRIDSSIFC)
		res := Enumerate(p, Options{Workers: workers, Seed: int64(workers)})
		if res.Matches != seq.Matches {
			t.Errorf("workers=%d: matches = %d, want %d", workers, res.Matches, seq.Matches)
		}
		if res.Aborted {
			t.Errorf("workers=%d: unexpected abort", workers)
		}
		var sum int64
		for _, s := range res.PerWorkerStates {
			sum += s
		}
		if sum != res.States {
			t.Errorf("workers=%d: per-worker states %d != total %d", workers, sum, res.States)
		}
	}
}

func TestAllGroupSizes(t *testing.T) {
	gp, gt := mediumInstance(t)
	want := Enumerate(prepared(t, gp, gt, ri.VariantRI), Options{Workers: 1}).Matches
	for _, g := range []int{1, 2, 4, 8, 16} {
		res := Enumerate(prepared(t, gp, gt, ri.VariantRI), Options{Workers: 4, TaskGroupSize: g, Seed: int64(g)})
		if res.Matches != want {
			t.Errorf("group size %d: matches = %d, want %d", g, res.Matches, want)
		}
	}
}

func TestNoStealing(t *testing.T) {
	gp, gt := mediumInstance(t)
	want := Enumerate(prepared(t, gp, gt, ri.VariantRIDS), Options{Workers: 1}).Matches
	res := Enumerate(prepared(t, gp, gt, ri.VariantRIDS), Options{Workers: 4, DisableStealing: true})
	if res.Matches != want {
		t.Fatalf("no-stealing matches = %d, want %d", res.Matches, want)
	}
	if res.Steals != 0 {
		t.Fatalf("stealing disabled but Steals = %d", res.Steals)
	}
}

func TestStealFromFrontAblation(t *testing.T) {
	gp, gt := mediumInstance(t)
	want := Enumerate(prepared(t, gp, gt, ri.VariantRI), Options{Workers: 1}).Matches
	res := Enumerate(prepared(t, gp, gt, ri.VariantRI), Options{Workers: 4, StealFromFront: true, Seed: 3})
	if res.Matches != want {
		t.Fatalf("front-steal matches = %d, want %d", res.Matches, want)
	}
}

func TestEagerCopyAblation(t *testing.T) {
	gp, gt := mediumInstance(t)
	want := Enumerate(prepared(t, gp, gt, ri.VariantRI), Options{Workers: 1}).Matches
	res := Enumerate(prepared(t, gp, gt, ri.VariantRI), Options{Workers: 4, EagerCopy: true, Seed: 5})
	if res.Matches != want {
		t.Fatalf("eager-copy matches = %d, want %d", res.Matches, want)
	}
}

func TestUnsatisfiable(t *testing.T) {
	bp := &graph.Builder{}
	bp.AddNode(9)
	bt := &graph.Builder{}
	bt.AddNode(1)
	p := prepared(t, bp.MustBuild(), bt.MustBuild(), ri.VariantRIDS)
	res := Enumerate(p, Options{Workers: 4})
	if !res.Unsatisfiable || res.Matches != 0 {
		t.Fatalf("unsat shortcut missing: %+v", res)
	}
}

func TestEmptyPattern(t *testing.T) {
	p := prepared(t, (&graph.Builder{}).MustBuild(), (&graph.Builder{}).MustBuild(), ri.VariantRI)
	if res := Enumerate(p, Options{Workers: 2}); res.Matches != 0 {
		t.Fatalf("empty pattern matched: %+v", res)
	}
}

func TestSingleNodePattern(t *testing.T) {
	bp := &graph.Builder{}
	bp.AddNode(1)
	bt := &graph.Builder{}
	bt.AddNode(1)
	bt.AddNode(1)
	bt.AddNode(2)
	p := prepared(t, bp.MustBuild(), bt.MustBuild(), ri.VariantRI)
	res := Enumerate(p, Options{Workers: 3})
	if res.Matches != 2 {
		t.Fatalf("single-node pattern matches = %d, want 2", res.Matches)
	}
}

func TestLimit(t *testing.T) {
	gp, gt := mediumInstance(t)
	res := Enumerate(prepared(t, gp, gt, ri.VariantRI), Options{Workers: 4, Limit: 5})
	if res.Matches < 5 {
		t.Fatalf("limit run found %d matches, want ≥ 5", res.Matches)
	}
	if res.Aborted {
		t.Fatal("limit-stop must not count as abort")
	}
}

func TestVisitCollectsValidMappings(t *testing.T) {
	gp, gt := mediumInstance(t)
	var mu sync.Mutex
	var collected [][]int32
	res := Enumerate(prepared(t, gp, gt, ri.VariantRIDSSIFC), Options{
		Workers: 4,
		Visit: func(m []int32) bool {
			cp := append([]int32(nil), m...)
			mu.Lock()
			collected = append(collected, cp)
			mu.Unlock()
			return true
		},
	})
	if int64(len(collected)) != res.Matches {
		t.Fatalf("visited %d mappings for %d matches", len(collected), res.Matches)
	}
	seen := make(map[string]bool)
	for _, m := range collected {
		// Validity: injective and edge-preserving.
		usedT := map[int32]bool{}
		for _, vt := range m {
			if usedT[vt] {
				t.Fatal("non-injective mapping emitted")
			}
			usedT[vt] = true
		}
		for _, e := range gp.Edges() {
			if !gt.HasEdgeLabeled(m[e.From], m[e.To], e.Label) {
				t.Fatalf("mapping %v misses edge %v", m, e)
			}
		}
		// Uniqueness: no duplicate emissions.
		key := ""
		for _, vt := range m {
			key += string(rune(vt)) + ","
		}
		if seen[key] {
			t.Fatal("duplicate mapping emitted")
		}
		seen[key] = true
	}
}

func TestVisitStopAborts(t *testing.T) {
	gp, gt := mediumInstance(t)
	var calls atomic.Int64
	res := Enumerate(prepared(t, gp, gt, ri.VariantRI), Options{
		Workers: 4,
		Visit:   func([]int32) bool { return calls.Add(1) < 3 },
	})
	if !res.Aborted {
		t.Fatal("visit-stop should abort")
	}
}

func TestExternalCancel(t *testing.T) {
	gp, gt := mediumInstance(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := Enumerate(prepared(t, gp, gt, ri.VariantRI), Options{Workers: 4, Ctx: ctx})
	if !res.Aborted {
		t.Fatal("pre-cancelled context did not abort the run")
	}
	if res.Matches != 0 {
		t.Fatalf("aborted-before-start run found %d matches", res.Matches)
	}
}

func TestCancelMidRun(t *testing.T) {
	// A heavier instance so cancellation lands mid-search.
	gp, gt := testutil.RandomInstance(7, testutil.InstanceOptions{
		TargetNodes:  150,
		TargetEdges:  3000,
		PatternNodes: 7,
		NodeLabels:   1,
		Extract:      true,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan Result, 1)
	go func() {
		done <- Enumerate(prepared(t, gp, gt, ri.VariantRI), Options{Workers: 4, Ctx: ctx})
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case res := <-done:
		if !res.Aborted && res.Matches == 0 {
			t.Fatal("cancelled run neither aborted nor completed")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancel did not stop the run")
	}
}

func TestArenaRunsAgree(t *testing.T) {
	gp, gt := mediumInstance(t)
	p := prepared(t, gp, gt, ri.VariantRIDS)
	want := Enumerate(p, Options{Workers: 4}).Matches
	arena := ri.NewArena(gt.NumNodes())
	for i := 0; i < 3; i++ {
		got := Enumerate(p, Options{Workers: 4, Arena: arena, Seed: int64(i)}).Matches
		if got != want {
			t.Fatalf("arena run %d: %d matches, want %d", i, got, want)
		}
	}
	// Early-terminated runs (Limit) must hand buffers back clean too.
	Enumerate(p, Options{Workers: 4, Arena: arena, Limit: 1})
	u := arena.AcquireUsed()
	for i, b := range u {
		if b {
			t.Fatalf("arena buffer returned dirty at %d", i)
		}
	}
	arena.ReleaseUsed(u)
}

func TestDeterministicMatchCount(t *testing.T) {
	gp, gt := mediumInstance(t)
	p := prepared(t, gp, gt, ri.VariantRIDS)
	first := Enumerate(p, Options{Workers: 8, Seed: 1}).Matches
	for seed := int64(2); seed <= 5; seed++ {
		if got := Enumerate(p, Options{Workers: 8, Seed: seed}).Matches; got != first {
			t.Fatalf("seed %d: matches = %d, want %d", seed, got, first)
		}
	}
}

// TestQuickParallelEqualsSequential is the central conservation property:
// any worker count, group size and scheduling configuration must yield
// exactly the sequential match count.
func TestQuickParallelEqualsSequential(t *testing.T) {
	f := func(seed int64, workersRaw, groupRaw uint8, variantRaw uint8, stealing bool) bool {
		workers := 1 + int(workersRaw%8)
		group := 1 + int(groupRaw%16)
		variant := ri.Variant(variantRaw % 4)
		gp, gt := testutil.RandomInstance(seed, testutil.InstanceOptions{
			TargetNodes:  20,
			TargetEdges:  90,
			PatternNodes: 5,
			Extract:      seed%2 == 0,
		})
		seq, err := ri.Enumerate(gp, gt, ri.Options{Variant: variant}, ri.RunOptions{})
		if err != nil {
			return false
		}
		p, err := ri.Prepare(gp, gt, ri.Options{Variant: variant})
		if err != nil {
			return false
		}
		res := Enumerate(p, Options{
			Workers:         workers,
			TaskGroupSize:   group,
			DisableStealing: !stealing,
			Seed:            seed,
		})
		if res.Matches != seq.Matches {
			t.Logf("seed=%d workers=%d group=%d variant=%v stealing=%v: got %d want %d",
				seed, workers, group, variant, stealing, res.Matches, seq.Matches)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60}
	if testing.Short() {
		cfg.MaxCount = 15
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestEnumerateGraphsConvenience(t *testing.T) {
	gp, gt := mediumInstance(t)
	res, err := EnumerateGraphs(gp, gt, ri.Options{Variant: ri.VariantRIDS}, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	seq, _ := ri.Enumerate(gp, gt, ri.Options{Variant: ri.VariantRIDS}, ri.RunOptions{})
	if res.Matches != seq.Matches {
		t.Fatalf("EnumerateGraphs = %d, want %d", res.Matches, seq.Matches)
	}
}

func TestOptionsNormalized(t *testing.T) {
	o := Options{}.normalized()
	if o.Workers != 1 || o.TaskGroupSize != DefaultGroupSize {
		t.Fatalf("normalized zero options = %+v", o)
	}
	o = Options{TaskGroupSize: 99}.normalized()
	if o.TaskGroupSize != MaxGroupSize {
		t.Fatalf("oversized group not clamped: %d", o.TaskGroupSize)
	}
}

func BenchmarkParallel4Workers(b *testing.B) {
	gp, gt := mediumInstance(b)
	p := prepared(b, gp, gt, ri.VariantRIDSSIFC)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Enumerate(p, Options{Workers: 4, Seed: int64(i)})
	}
}

// TestMatchTimeRecorded guards against the named-return/defer pitfall.
func TestMatchTimeRecorded(t *testing.T) {
	gp, gt := mediumInstance(t)
	res := Enumerate(prepared(t, gp, gt, ri.VariantRI), Options{Workers: 2})
	if res.MatchTime <= 0 {
		t.Fatalf("MatchTime not recorded: %v", res.MatchTime)
	}
}

// TestMappingSetEqualsSequential checks that the parallel engine emits
// exactly the same *set* of mappings as the sequential engine — a
// stronger property than equal counts.
func TestMappingSetEqualsSequential(t *testing.T) {
	gp, gt := mediumInstance(t)
	key := func(m []int32) string {
		b := make([]byte, 0, 4*len(m))
		for _, v := range m {
			b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
		return string(b)
	}

	seqSet := map[string]bool{}
	_, err := ri.Enumerate(gp, gt, ri.Options{Variant: ri.VariantRIDS}, ri.RunOptions{
		Visit: func(m []int32) bool {
			seqSet[key(m)] = true
			return true
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	parSet := map[string]bool{}
	res := Enumerate(prepared(t, gp, gt, ri.VariantRIDS), Options{
		Workers: 4,
		Visit: func(m []int32) bool {
			mu.Lock()
			parSet[key(m)] = true
			mu.Unlock()
			return true
		},
	})
	if len(seqSet) != len(parSet) || int64(len(parSet)) != res.Matches {
		t.Fatalf("set sizes differ: seq=%d par=%d matches=%d", len(seqSet), len(parSet), res.Matches)
	}
	for k := range seqSet {
		if !parSet[k] {
			t.Fatal("parallel run missed a mapping the sequential run found")
		}
	}
}

// TestNoInitialDistribution checks the §3.3 ablation still enumerates
// everything when all seeds start on worker 0.
func TestNoInitialDistribution(t *testing.T) {
	gp, gt := mediumInstance(t)
	want := Enumerate(prepared(t, gp, gt, ri.VariantRI), Options{Workers: 1}).Matches
	res := Enumerate(prepared(t, gp, gt, ri.VariantRI), Options{
		Workers: 4, NoInitialDistribution: true, Seed: 9,
	})
	if res.Matches != want {
		t.Fatalf("no-init-dist matches = %d, want %d", res.Matches, want)
	}
}

// TestInducedParallel: the parallel engine shares Feasible with the
// sequential one, so induced mode must agree across worker counts.
func TestInducedParallel(t *testing.T) {
	gp, gt := testutil.RandomInstance(23, testutil.InstanceOptions{
		TargetNodes: 40, TargetEdges: 260, PatternNodes: 5, Extract: true,
	})
	p, err := ri.Prepare(gp, gt, ri.Options{Variant: ri.VariantRIDS, Domain: domain.Options{Semantics: graph.InducedIso}})
	if err != nil {
		t.Fatal(err)
	}
	want := p.Run(ri.RunOptions{}).Matches
	for _, w := range []int{2, 4, 8} {
		if got := Enumerate(p, Options{Workers: w, Seed: int64(w)}).Matches; got != want {
			t.Errorf("workers=%d induced matches = %d, want %d", w, got, want)
		}
	}
}

func TestDepthStatesParallel(t *testing.T) {
	gp, gt := mediumInstance(t)
	seq, err := ri.Enumerate(gp, gt, ri.Options{Variant: ri.VariantRIDS}, ri.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res := Enumerate(prepared(t, gp, gt, ri.VariantRIDS), Options{Workers: 4, Seed: 2})
	if len(res.DepthStates) != len(seq.DepthStates) {
		t.Fatalf("profile lengths differ: %d vs %d", len(res.DepthStates), len(seq.DepthStates))
	}
	var sum int64
	for d, c := range res.DepthStates {
		sum += c
		// Parallel explores exactly the same tree: per-depth counts match.
		if c != seq.DepthStates[d] {
			t.Errorf("depth %d: parallel %d states vs sequential %d", d, c, seq.DepthStates[d])
		}
	}
	if sum != res.States {
		t.Fatalf("profile sums to %d, States = %d", sum, res.States)
	}
}

func TestSenderInitiatedParallel(t *testing.T) {
	gp, gt := mediumInstance(t)
	want := Enumerate(prepared(t, gp, gt, ri.VariantRIDS), Options{Workers: 1}).Matches
	res := Enumerate(prepared(t, gp, gt, ri.VariantRIDS), Options{
		Workers: 4, SenderInitiated: true, Seed: 6,
	})
	if res.Matches != want {
		t.Fatalf("sender-initiated matches = %d, want %d", res.Matches, want)
	}
}

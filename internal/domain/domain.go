// Package domain implements RI-DS domain assignment (Kimmig et al. §4.1)
// and the paper's forward-checking improvement (§4.2.2), extended into a
// semantics-aware pruning subsystem.
//
// A domain D(v_p) is the set of target nodes that pattern node v_p may
// map to. Domains start from label equivalence and degree bounds, are
// tightened by the neighborhood-label-frequency filter (NLF: the
// candidate's labeled neighborhood must dominate the pattern node's),
// pruned by arc consistency over the pattern edges — and, under induced
// semantics, over the pattern *non*-edges too — and, in the RI-DS-SI-FC
// variant, further reduced by forward checking: every pattern node with
// a singleton domain will definitely be assigned its unique target node,
// so that target is removed from every other domain, cascading over
// newly created singletons.
//
// Every filter adapts to the matching semantics (see Options.Semantics):
// degree bounds and multiset NLF domination require injectivity, so
// under graph.Homomorphism the NLF check weakens to set containment (the
// image must offer every labeled-neighbor kind the pattern node needs,
// counted as a set) — the sound homomorphism label bound — and degree
// bounds are dropped. The non-edge propagation applies only under
// graph.InducedIso, the one semantics that constrains non-edges.
//
// Domains are represented as bitmasks over the target vertex set, exactly
// as in the original RI implementation ("In RI, domains are implemented
// as bitmasks, which we use to quickly remove singleton domains' contents
// from all other domains").
//
// Which filters run — and how deep arc consistency iterates — is chosen
// per query by the adaptive schedule (see Schedule, autoTune in
// schedule.go): preprocessing cost is only paid where target statistics
// say it amortizes. Prepare, which resolves the schedule and then
// computes the domains, is the one entry the engines and the session's
// cost estimate call. NLF signatures have two representations: exact
// per-key (nlfSig) and memory-bounded bucketed (compact.go).
package domain

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"parsge/internal/bitset"
	"parsge/internal/graph"
)

// Domains holds one candidate set per pattern node over target node ids.
type Domains struct {
	sets []*bitset.Set
	nt   int
}

// Index is precomputed target-side state reusable across queries against
// the same target graph: nodes bucketed by label (in ascending node-id
// order), per-node neighborhood-label-frequency signatures for the NLF
// filter, and the target statistics the adaptive schedule consults.
// Building it once per target and sharing it between Compute calls turns
// the initial domain filter from a scan over all target nodes into a
// scan over the label's bucket, with each candidate's NLF signature
// ready instead of recomputed per query. An Index is immutable after
// NewIndex and safe for concurrent use.
type Index struct {
	byLabel map[graph.Label][]int32
	nt      int
	// stats are cached for autoTune (density, label entropy, skew).
	stats TargetStats
	// out[v] / in[v] are node v's exact NLF signatures per direction
	// (nil in compact mode).
	out, in []nlfSig
	// cout / cin are the bucketed signatures of compact mode (nil in
	// exact mode); keyBucket is the perfect key→bucket assignment of the
	// exactness fallback (nil = hashed buckets). See compact.go.
	cout, cin []compactSig
	keyBucket map[uint64]int8
	// sumDeg / sumSqDeg are the exact integer degree moments behind
	// stats.MeanDegree/DegreeSkew, kept so incremental update
	// maintenance (update.go) can adjust them for touched vertices only
	// and still reproduce a rebuild bit-for-bit.
	sumDeg, sumSqDeg int64
	// gen is the index generation: 0 at construction, old.gen+1 for
	// every ApplyUpdates derivative. It tags the lazily-built BitGraph
	// row cache below so a seeded cache is only trusted for the
	// generation it was built for.
	gen uint64
	// rowCache holds the lazily-built bitset adjacency rows (see Rows).
	// The pointer itself is the only mutable state of an Index; racing
	// builders store identical content, so last-store-wins is safe.
	rowCache atomic.Pointer[bitRows]
}

// bitRows is the BitGraph row cache of an Index, tagged with the index
// generation it was built for so incremental seeding can never leak
// stale rows across an update.
//
//sgelint:epochkey
type bitRows struct {
	rows  *graph.BitGraph // nil when the target exceeds graph.DenseRowLimit
	epoch uint64          // Index generation the rows were built from
}

// Rows returns the target's dense bitset adjacency rows, building them
// on first use and caching them on the Index (the BitGraph kernel
// layer). g must be the graph the Index was built for. Returns nil when
// the target exceeds graph.DenseRowLimit nodes — the sorted-slice
// fallback rule; callers must treat nil as "use the CSR paths".
func (ix *Index) Rows(g *graph.Graph) *graph.BitGraph {
	if c := ix.cachedRows(); c != nil {
		return c.rows
	}
	bg := graph.NewBitGraph(g)
	ix.rowCache.Store(&bitRows{rows: bg, epoch: ix.gen})
	return bg
}

// cachedRows returns the row cache if it was built for this generation,
// without building anything.
func (ix *Index) cachedRows() *bitRows {
	if c := ix.rowCache.Load(); c != nil && c.epoch == ix.gen {
		return c
	}
	return nil
}

// HasRows reports whether the BitGraph row cache is built for the
// current generation (tests and IndexEqual use it; laziness means an
// unbuilt cache is not a difference).
func (ix *Index) HasRows() bool { return ix.cachedRows() != nil }

// NewIndex buckets the target's nodes by label and precomputes the
// per-node NLF signatures, choosing the representation automatically
// (exact below compactAutoEdges edges, compact above).
func NewIndex(gt *graph.Graph) *Index { return NewIndexMode(gt, NLFAuto) }

// NewIndexMode is NewIndex with an explicit NLF signature representation
// (see NLFMode). Compact signatures bound per-node memory at a constant
// on huge targets at the cost of a (sound) coarser NLF test; with a
// small label alphabet the compact test is exact (NLFExactFallback).
func NewIndexMode(gt *graph.Graph, mode NLFMode) *Index {
	nt := gt.NumNodes()
	st, sumDeg, sumSqDeg := statsWithSums(gt)
	ix := &Index{
		byLabel:  make(map[graph.Label][]int32),
		nt:       nt,
		stats:    st,
		sumDeg:   sumDeg,
		sumSqDeg: sumSqDeg,
	}
	for vt := int32(0); vt < int32(nt); vt++ {
		l := gt.NodeLabel(vt)
		ix.byLabel[l] = append(ix.byLabel[l], vt)
	}
	if mode == NLFAuto && gt.NumEdges() >= compactAutoEdges {
		mode = NLFCompact
	}
	if mode == NLFCompact {
		ix.buildCompactNLF(gt)
		return ix
	}
	ix.out = make([]nlfSig, nt)
	ix.in = make([]nlfSig, nt)
	var buf []uint64
	for vt := int32(0); vt < int32(nt); vt++ {
		buf = appendNLFKeys(buf[:0], gt, gt.OutNeighbors(vt), gt.OutEdgeLabels(vt))
		ix.out[vt] = buildNLFSig(buf)
		buf = appendNLFKeys(buf[:0], gt, gt.InNeighbors(vt), gt.InEdgeLabels(vt))
		ix.in[vt] = buildNLFSig(buf)
	}
	return ix
}

// Stats returns the target statistics cached at index construction.
func (ix *Index) Stats() TargetStats { return ix.stats }

// Nodes returns the target nodes carrying label l, ascending by id. The
// slice is shared — callers must not modify it.
func (ix *Index) Nodes(l graph.Label) []int32 { return ix.byLabel[l] }

// NumNodes returns the node count of the indexed target, used to verify
// an Index belongs to the graph a query runs against.
func (ix *Index) NumNodes() int { return ix.nt }

// NumLabels returns the number of distinct node labels in the target.
func (ix *Index) NumLabels() int { return len(ix.byLabel) }

// nlfKey packs a (neighbor node label, edge label) pair into one
// comparable word. Labels are int32, so the two halves never collide.
func nlfKey(nodeLab, edgeLab graph.Label) uint64 {
	return uint64(uint32(nodeLab))<<32 | uint64(uint32(edgeLab))
}

// nlfSig is one node's neighborhood-label-frequency signature in one
// direction: sorted (neighbor label, edge label) keys with the number of
// distinct neighbors per key. Self-loops are included as ordinary
// incidences on both the pattern and the target side, which keeps the
// domination test sound for every semantics (a pattern self-loop can
// only map onto a target self-loop; under homomorphism a pattern edge
// may map onto a target self-loop, whose key is then present).
type nlfSig struct {
	keys   []uint64
	counts []int32
}

// appendNLFKeys appends one key per distinct (neighbor, edge label)
// incidence of an adjacency row. Rows are sorted by neighbor id, so
// parallel edges are contiguous; equal-label parallels are deduplicated
// (they impose a single constraint), different-label parallels each
// contribute their own key.
func appendNLFKeys(dst []uint64, g *graph.Graph, adj []int32, labs []graph.Label) []uint64 {
	for i := 0; i < len(adj); {
		j := i
		for j < len(adj) && adj[j] == adj[i] {
			j++
		}
		nl := g.NodeLabel(adj[i])
		for k := i; k < j; k++ {
			dup := false
			for m := i; m < k; m++ {
				if labs[m] == labs[k] {
					dup = true
					break
				}
			}
			if !dup {
				dst = append(dst, nlfKey(nl, labs[k]))
			}
		}
		i = j
	}
	return dst
}

// buildNLFSig sorts the key buffer and run-length encodes it into a
// signature. The buffer may be reused afterwards; the signature owns
// fresh storage.
func buildNLFSig(keys []uint64) nlfSig {
	if len(keys) == 0 {
		return nlfSig{}
	}
	slices.Sort(keys)
	var sig nlfSig
	for i := 0; i < len(keys); {
		j := i
		for j < len(keys) && keys[j] == keys[i] {
			j++
		}
		sig.keys = append(sig.keys, keys[i])
		sig.counts = append(sig.counts, int32(j-i))
		i = j
	}
	return sig
}

// dominates reports whether target signature t covers pattern signature
// p: every pattern key must be present with at least the pattern's
// count (multiset domination — sound under the injective semantics,
// where distinct pattern neighbors need distinct images) or, under
// homomorphism, with at least one distinct neighbor (set containment —
// distinct pattern neighbors may collapse onto one image, but every
// required labeled-edge kind must exist).
func (t nlfSig) dominates(p nlfSig, hom bool) bool {
	ti := 0
	for pi, k := range p.keys {
		for ti < len(t.keys) && t.keys[ti] < k {
			ti++
		}
		if ti == len(t.keys) || t.keys[ti] != k {
			return false
		}
		if !hom && t.counts[ti] < p.counts[pi] {
			return false
		}
	}
	return true
}

// Options configures domain computation. It is the one preprocessing
// configuration the engines (ri, vf2, lad) and the session's cost
// estimate share; Prepare is its one entry point.
type Options struct {
	// Schedule selects the filter plan: the zero value, ScheduleAuto,
	// lets Prepare adapt the knobs below to the target's statistics and
	// the pattern's shape (see autoTune); ScheduleFixed runs them as
	// given. Explicit knobs are respected under both. Compute and
	// ComputeWithStats run the knobs as given and ignore it.
	Schedule Schedule
	// ACPasses bounds the number of arc-consistency sweeps: 0 means
	// iterate to fixpoint, n > 0 caps at n sweeps. A single sweep is
	// what the original RI-DS description performs; the fixpoint is
	// never weaker. The ablation bench compares the two.
	ACPasses int
	// ACAdaptive marks ACPasses as a revisable scheduler prediction
	// rather than a caller demand: after the capped sweeps the pipeline
	// measures the remaining domains and escalates to fixpoint when
	// their mean size is still at least acEscalateMeanDomain candidates
	// per pattern node (the second-stage autoTune rule). Set by autoTune
	// alongside its one-pass cap; ignored when ACPasses is 0.
	ACAdaptive bool
	// SkipAC disables arc consistency entirely (the induced non-edge
	// propagation included), leaving only the unary filters. Used by
	// ablation benchmarks.
	SkipAC bool
	// SkipNLF disables the neighborhood-label-frequency filter, leaving
	// the label/degree/self-loop unary filters. Used by ablation
	// benchmarks and the differential tests.
	SkipNLF bool
	// SkipInducedAC disables the induced non-edge propagation while
	// keeping the classic edge-support arc consistency. Only meaningful
	// under graph.InducedIso. Used by ablations and differential tests.
	SkipInducedAC bool
	// Index, when non-nil and built for the same target, restricts the
	// initial label/degree filter to each label's bucket instead of
	// scanning every target node, and supplies precomputed target NLF
	// signatures. Results are identical either way.
	Index *Index
	// Kernel selects the candidate-intersection implementation of the
	// propagation hot paths (classic AC support scans and the induced
	// non-edge pass): KernelBitset rewires them onto dense BitGraph
	// rows (cached on Index when one is supplied), KernelSlice keeps
	// the CSR scans, KernelAuto resolves by target size and row density
	// (ResolveKernel). Results are identical for every kernel.
	Kernel Kernel
	// Semantics adjusts the filters to the matching semantics: under
	// graph.Homomorphism the degree bounds are dropped (several pattern
	// edges may collapse onto one target edge, so "image degree ≥
	// pattern degree" would wrongly prune valid images) and NLF
	// domination weakens to set containment; under graph.InducedIso the
	// unary self-loop filter and the arc-consistency sweep additionally
	// enforce non-edge constraints. Arc consistency over pattern edges
	// is sound for every semantics — it only requires each pattern edge
	// to have some compatible target edge. The zero value normalizes to
	// the paper's non-induced subgraph isomorphism.
	Semantics graph.Semantics
}

// Prepare is the preprocessing step every engine and the cost estimate
// run before a search: it resolves opts.Schedule (Auto tunes the filter
// knobs to this target and pattern), then computes the domains of gp
// against gt. The stats report the plan that ran and carry the bitset
// rows the propagation used (Rows) for the engine to reuse.
func Prepare(gp, gt *graph.Graph, opts Options) (*Domains, ComputeStats) {
	if opts.Schedule == ScheduleAuto {
		opts = autoTune(opts, gp, gt)
	}
	return ComputeWithStats(gp, gt, opts)
}

// Compute builds the domains of pattern gp against target gt.
func Compute(gp, gt *graph.Graph, opts Options) *Domains {
	d, _ := ComputeWithStats(gp, gt, opts)
	return d
}

// ComputeWithStats is Compute plus a report of what the filter pipeline
// did: the resolved Plan, per-filter wall times, and staged domain
// sizes. It runs the filter knobs exactly as given; Prepare is the
// scheduling entry that resolves them first.
func ComputeWithStats(gp, gt *graph.Graph, opts Options) (*Domains, ComputeStats) {
	sem := opts.Semantics.Norm()
	np, nt := gp.NumNodes(), gt.NumNodes()
	d := &Domains{sets: make([]*bitset.Set, np), nt: nt}

	ix := opts.Index
	if ix != nil && ix.nt != nt {
		ix = nil // index built for a different target: ignore
	}
	hom := !sem.Injective()
	induced := sem.Induced()
	compact := ix != nil && ix.CompactNLF()
	stats := ComputeStats{Plan: Plan{
		NLF:        !opts.SkipNLF,
		CompactNLF: !opts.SkipNLF && compact,
		AC:         !opts.SkipAC,
		ACPasses:   opts.ACPasses,
		ACAdaptive: !opts.SkipAC && opts.ACAdaptive && opts.ACPasses > 0,
		InducedAC:  induced && !opts.SkipAC && !opts.SkipInducedAC,
	}}
	unaryStart := time.Now()

	// Pattern-side unary state, computed once per pattern node: NLF
	// signatures (exact, or bucketed to match a compact index) and
	// self-loop label sets.
	var psigOut, psigIn []nlfSig
	var pcOut, pcIn []patternCompact
	if !opts.SkipNLF {
		var buf []uint64
		if compact {
			pcOut = make([]patternCompact, np)
			pcIn = make([]patternCompact, np)
			for vp := int32(0); vp < int32(np); vp++ {
				buf = appendNLFKeys(buf[:0], gp, gp.OutNeighbors(vp), gp.OutEdgeLabels(vp))
				pcOut[vp] = ix.buildPatternCompact(buf)
				buf = appendNLFKeys(buf[:0], gp, gp.InNeighbors(vp), gp.InEdgeLabels(vp))
				pcIn[vp] = ix.buildPatternCompact(buf)
			}
		} else {
			psigOut = make([]nlfSig, np)
			psigIn = make([]nlfSig, np)
			for vp := int32(0); vp < int32(np); vp++ {
				buf = appendNLFKeys(buf[:0], gp, gp.OutNeighbors(vp), gp.OutEdgeLabels(vp))
				psigOut[vp] = buildNLFSig(buf)
				buf = appendNLFKeys(buf[:0], gp, gp.InNeighbors(vp), gp.InEdgeLabels(vp))
				psigIn[vp] = buildNLFSig(buf)
			}
		}
	}
	selfLoops := patternSelfLoops(gp)

	// Without an Index, target signatures are built on the fly and
	// memoized per node: same-label pattern nodes share a candidate
	// bucket, so each candidate would otherwise be re-encoded once per
	// pattern node.
	var scratch []uint64
	var tout, tin []nlfSig
	var tbuilt []bool
	targetSigs := func(vt int32) (out, in nlfSig) {
		if ix != nil {
			return ix.out[vt], ix.in[vt]
		}
		if tbuilt == nil {
			tout = make([]nlfSig, nt)
			tin = make([]nlfSig, nt)
			tbuilt = make([]bool, nt)
		}
		if !tbuilt[vt] {
			scratch = appendNLFKeys(scratch[:0], gt, gt.OutNeighbors(vt), gt.OutEdgeLabels(vt))
			tout[vt] = buildNLFSig(scratch)
			scratch = appendNLFKeys(scratch[:0], gt, gt.InNeighbors(vt), gt.InEdgeLabels(vt))
			tin[vt] = buildNLFSig(scratch)
			tbuilt[vt] = true
		}
		return tout[vt], tin[vt]
	}

	// Initial unary filter per pattern node: equivalent labels,
	// sufficient in/out degrees ("all nodes with in- and outdegree at
	// least that of v_p's, and with labels that match v_p's", §4.1, only
	// under the injective semantics), label-compatible self-loops (under
	// induced semantics also the absence of extra target self-loops),
	// and NLF domination. With a label Index only the matching bucket is
	// scanned; the label test is then implicit.
	for vp := int32(0); vp < int32(np); vp++ {
		s := bitset.New(nt)
		lab := gp.NodeLabel(vp)
		din, dout := gp.InDegree(vp), gp.OutDegree(vp)
		if !sem.DegreePruning() {
			din, dout = 0, 0
		}
		admit := func(vt int32) {
			if gt.InDegree(vt) < din || gt.OutDegree(vt) < dout {
				return
			}
			for _, l := range selfLoops[vp] {
				if !gt.HasEdgeLabeled(vt, vt, l) {
					return
				}
			}
			if induced && len(selfLoops[vp]) == 0 && gt.HasEdge(vt, vt) {
				return
			}
			if !opts.SkipNLF {
				if compact {
					if !compactDominates(ix.cout[vt], pcOut[vp].sig, hom) ||
						!compactDominates(ix.cin[vt], pcIn[vp].sig, hom) {
						return
					}
				} else if len(psigOut[vp].keys) > 0 || len(psigIn[vp].keys) > 0 {
					tout, tin := targetSigs(vt)
					if !tout.dominates(psigOut[vp], hom) || !tin.dominates(psigIn[vp], hom) {
						return
					}
				}
			}
			s.Set(int(vt))
		}
		if compact && !opts.SkipNLF && (pcOut[vp].impossible || pcIn[vp].impossible) {
			// A pattern key outside the target's key alphabet (perfect
			// bucket assignment): no candidate anywhere can supply it.
			d.sets[vp] = s
			continue
		}
		if ix != nil {
			for _, vt := range ix.Nodes(lab) {
				admit(vt)
			}
		} else {
			for vt := int32(0); vt < int32(nt); vt++ {
				if gt.NodeLabel(vt) == lab {
					admit(vt)
				}
			}
		}
		d.sets[vp] = s
	}

	stats.UnaryTime = time.Since(unaryStart)
	stats.AfterUnary = d.TotalSize()

	// The BitGraph rows the propagation passes (and, via stats.Rows, the
	// engines) run on: cached on an Index, built here without one only
	// when arc consistency will use them.
	if ix != nil || !opts.SkipAC {
		stats.Rows = RowsFor(opts.Kernel, ix, gt)
	}
	if !opts.SkipAC {
		d.arcConsistency(gp, gt, stats.Rows, opts.ACPasses, stats.Plan.ACAdaptive, induced && !opts.SkipInducedAC, &stats)
	}
	stats.Final = d.TotalSize()
	if lp, empty := d.LogProduct(); !empty {
		stats.LogDomainProduct = lp
	}
	return d, stats
}

// patternSelfLoops collects, per pattern node, the distinct labels of
// its self-loops.
func patternSelfLoops(gp *graph.Graph) [][]graph.Label {
	out := make([][]graph.Label, gp.NumNodes())
	for vp := int32(0); vp < int32(gp.NumNodes()); vp++ {
		adj := gp.OutNeighbors(vp)
		labs := gp.OutEdgeLabels(vp)
		for i, w := range adj {
			if w == vp && !slices.Contains(out[vp], labs[i]) {
				out[vp] = append(out[vp], labs[i])
			}
		}
	}
	return out
}

// arcConsistency removes v_t from D(v_p) whenever some pattern edge at
// v_p has no compatible counterpart at v_t (§4.1): for every edge
// (v_p, w_p) there must be an edge-label-compatible w_t ∈ D(w_p) with
// (v_t, w_t) ∈ E(G_t), and symmetrically for incoming edges. When
// induced is set, each sweep additionally propagates the pattern
// *non*-edge constraints (see inducedPass); both prunings share the
// pass loop so they reach a joint fixpoint. st accumulates the wall
// time of the classic sweeps and the induced passes separately.
//
// With adaptive set, maxPasses is a revisable prediction: after the
// first sweep the remaining mean domain size is measured, and when it is
// still at least acEscalateMeanDomain candidates per pattern node the
// cap is lifted and the sweeps continue to fixpoint (the second-stage
// autoTune rule). The outcome is written back to st.Plan.ACPasses so the
// reported plan shows the decision actually taken.
func (d *Domains) arcConsistency(gp, gt *graph.Graph, rows *graph.BitGraph, maxPasses int, adaptive, induced bool, st *ComputeStats) {
	np := gp.NumNodes()
	start := time.Now()
	defer func() {
		st.ACTime = time.Since(start) - st.InducedACTime
	}()
	// Under the bitset kernel with per-label rows, the support test
	// "some labeled neighbor of v_t lies in D(w_p)" is one word-parallel
	// intersection against the (direction, label) row. The row slices
	// are hoisted per pattern node so the candidate loop does no map
	// lookups; a nil slice means the label has no target edge at all.
	labelRows := rows != nil && rows.HasLabelRows()
	var outRows, inRows [][]*bitset.Set
	for pass := 0; maxPasses == 0 || pass < maxPasses; pass++ {
		changed := false
		for vp := int32(0); vp < int32(np); vp++ {
			dom := d.sets[vp]
			if dom.Empty() {
				continue
			}
			outP := gp.OutNeighbors(vp)
			outL := gp.OutEdgeLabels(vp)
			inP := gp.InNeighbors(vp)
			inL := gp.InEdgeLabels(vp)
			if labelRows {
				outRows = outRows[:0]
				for _, l := range outL {
					outRows = append(outRows, rows.OutLab[l])
				}
				inRows = inRows[:0]
				for _, l := range inL {
					inRows = append(inRows, rows.InLab[l])
				}
			}

			var drop []int
			dom.ForEach(func(vti int) bool {
				vt := int32(vti)
				for i, wp := range outP {
					if wp == vp {
						continue // self-loops are a unary constraint
					}
					if labelRows {
						if r := outRows[i]; r == nil || !d.sets[wp].Intersects(r[vt]) {
							drop = append(drop, vti)
							return true
						}
						continue
					}
					if rows != nil && !rows.Out[vt].Intersects(d.sets[wp]) {
						// Direction-row prefilter: no out-neighbor of
						// v_t lies in the domain under any label.
						drop = append(drop, vti)
						return true
					}
					if !hasSupport(gt.OutNeighbors(vt), gt.OutEdgeLabels(vt), outL[i], d.sets[wp]) {
						drop = append(drop, vti)
						return true
					}
				}
				for i, wp := range inP {
					if wp == vp {
						continue
					}
					if labelRows {
						if r := inRows[i]; r == nil || !d.sets[wp].Intersects(r[vt]) {
							drop = append(drop, vti)
							return true
						}
						continue
					}
					if rows != nil && !rows.In[vt].Intersects(d.sets[wp]) {
						drop = append(drop, vti)
						return true
					}
					if !hasSupport(gt.InNeighbors(vt), gt.InEdgeLabels(vt), inL[i], d.sets[wp]) {
						drop = append(drop, vti)
						return true
					}
				}
				return true
			})
			for _, vti := range drop {
				dom.Clear(vti)
				changed = true
			}
		}
		if induced {
			ipStart := time.Now()
			ipChanged := d.inducedPass(gp, gt, rows)
			st.InducedACTime += time.Since(ipStart)
			if ipChanged {
				changed = true
			}
		}
		if pass == 0 {
			st.AfterPass1 = d.TotalSize()
			if adaptive && changed && np > 0 &&
				float64(st.AfterPass1) >= acEscalateMeanDomain*float64(np) {
				// The one-pass prediction was wrong for this query:
				// the sweep is still pruning and the domains it left
				// behind are large, so further sweeps have real work.
				// Lift the cap and iterate to fixpoint.
				maxPasses = 0
				st.Plan.ACPasses = 0
			}
		}
		if !changed {
			return
		}
	}
}

// inducedPass propagates the non-edge constraints of induced matching:
// for an ordered pattern pair (v_p, w_p) with a missing edge in either
// direction, a valid induced embedding maps w_p to some w_t ∈ D(w_p)
// distinct from v_t (induced matching is injective) whose corresponding
// target edges are missing too. A candidate v_t with no such support in
// D(w_p) is removed.
//
// The support test is O(1) in the common case by pigeonhole: at most
// OutDegree(v_t) target nodes have an edge from v_t, at most
// InDegree(v_t) an edge to v_t, plus v_t itself — a domain larger than
// that necessarily contains a support, so only small domains are
// scanned. It returns whether any domain changed.
func (d *Domains) inducedPass(gp, gt *graph.Graph, rows *graph.BitGraph) bool {
	np := gp.NumNodes()
	changed := false
	for vp := int32(0); vp < int32(np); vp++ {
		dom := d.sets[vp]
		if dom.Empty() {
			continue
		}
		for wp := int32(0); wp < int32(np); wp++ {
			if wp == vp {
				continue // the self pair is the unary self-loop filter
			}
			needOut := !gp.HasEdge(vp, wp) // pattern non-edge vp→wp
			needIn := !gp.HasEdge(wp, vp)  // pattern non-edge wp→vp
			if !needOut && !needIn {
				continue
			}
			domW := d.sets[wp]
			sizeW := domW.Count()
			var drop []int
			dom.ForEach(func(vti int) bool {
				vt := int32(vti)
				bound := 1 // v_t itself is never a valid image of w_p
				if needOut {
					bound += gt.OutDegree(vt)
				}
				if needIn {
					bound += gt.InDegree(vt)
				}
				if sizeW > bound {
					return true // pigeonhole: a non-adjacent support exists
				}
				if rows != nil {
					// Bitset kernel: "some w_t ∈ D(w_p) \ {v_t} avoids
					// v_t's out/in rows" is one word-parallel pass.
					var a, b *bitset.Set
					if needOut {
						a = rows.Out[vt]
					}
					if needIn {
						b = rows.In[vt]
					}
					if !domW.ExistsOutside(a, b, vti) {
						drop = append(drop, vti)
					}
					return true
				}
				supported := false
				domW.ForEach(func(wti int) bool {
					wt := int32(wti)
					if wt == vt {
						return true
					}
					if needOut && gt.HasEdge(vt, wt) {
						return true
					}
					if needIn && gt.HasEdge(wt, vt) {
						return true
					}
					supported = true
					return false
				})
				if !supported {
					drop = append(drop, vti)
				}
				return true
			})
			for _, vti := range drop {
				dom.Clear(vti)
				changed = true
			}
		}
	}
	return changed
}

// hasSupport reports whether some neighbor w_t (with matching edge label)
// lies in the domain of the pattern neighbor.
func hasSupport(adj []int32, labs []graph.Label, want graph.Label, dom *bitset.Set) bool {
	for i, wt := range adj {
		if labs[i] == want && dom.Test(int(wt)) {
			return true
		}
	}
	return false
}

// Of returns the domain of pattern node vp. The set is shared, not a
// copy; the search engines only read it.
func (d *Domains) Of(vp int32) *bitset.Set { return d.sets[vp] }

// NumPattern returns the number of pattern nodes covered.
func (d *Domains) NumPattern() int { return len(d.sets) }

// Sizes returns the cardinality of each domain, used by the SI ordering
// tie-break and by the singleton hoisting rule.
func (d *Domains) Sizes() []int {
	out := make([]int, len(d.sets))
	for i, s := range d.sets {
		out[i] = s.Count()
	}
	return out
}

// AnyEmpty reports whether some domain is empty, in which case no
// isomorphic subgraph exists and the search can be skipped entirely.
func (d *Domains) AnyEmpty() bool {
	for _, s := range d.sets {
		if s.Empty() {
			return true
		}
	}
	return false
}

// ForwardCheck applies the paper's §4.2.2 improvement in place: for each
// pattern node with a singleton domain, its unique target node is removed
// from every other domain (the injectivity constraint is propagated ahead
// of the search). Newly created singletons are processed transitively.
// It propagates injectivity, so callers must not invoke it for
// non-injective semantics (graph.Homomorphism) — ri.Prepare gates on
// Semantics.Injective().
//
// It returns false when the instance is proven unsatisfiable: a domain
// ran empty, or two pattern nodes are both pinned to the same target.
func (d *Domains) ForwardCheck() bool {
	np := len(d.sets)
	processed := make([]bool, np)
	queue := make([]int, 0, np)
	for vp, s := range d.sets {
		if s.Count() == 1 {
			queue = append(queue, vp)
		}
	}
	for len(queue) > 0 {
		vp := queue[0]
		queue = queue[1:]
		if processed[vp] {
			continue
		}
		processed[vp] = true
		s := d.sets[vp]
		vt := s.First()
		if vt < 0 {
			return false // ran empty while queued
		}
		for wp, o := range d.sets {
			if wp == vp || !o.Test(vt) {
				continue
			}
			if processed[wp] && o.Count() == 1 {
				// Two pattern nodes pinned to the same target.
				return false
			}
			o.Clear(vt)
			switch o.Count() {
			case 0:
				return false
			case 1:
				queue = append(queue, wp)
			}
		}
	}
	return true
}

// Clone deep-copies the domains; the parallel engine gives each worker a
// read-only shared copy, but tests use Clone to compare variants.
func (d *Domains) Clone() *Domains {
	c := &Domains{sets: make([]*bitset.Set, len(d.sets)), nt: d.nt}
	for i, s := range d.sets {
		c.sets[i] = s.Clone()
	}
	return c
}

// TotalSize returns the sum of domain cardinalities — a scalar measure of
// search-space tightness used by tests and the experiment harness.
func (d *Domains) TotalSize() int {
	t := 0
	for _, s := range d.sets {
		t += s.Count()
	}
	return t
}

// LogProduct returns log2 of the product of domain cardinalities — the
// staged upper bound on the number of candidate assignments the search
// could enumerate — summed in log space so huge products don't overflow.
// Empty domains are skipped in the sum; the second return reports
// whether any domain was empty (the instance is then unsatisfiable and
// the bound is moot).
func (d *Domains) LogProduct() (float64, bool) {
	var sum float64
	empty := false
	for _, s := range d.sets {
		c := s.Count()
		if c == 0 {
			empty = true
			continue
		}
		sum += math.Log2(float64(c))
	}
	return sum, empty
}

// String summarizes domain sizes for debugging.
func (d *Domains) String() string {
	return fmt.Sprintf("Domains(pattern=%d, sizes=%v)", len(d.sets), d.Sizes())
}

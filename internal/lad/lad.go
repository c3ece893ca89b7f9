// Package lad implements a LAD-style constraint-propagation subgraph
// enumeration engine, the third algorithm family the paper surveys
// (Kimmig et al. §2.2.1: "constraint propagation based" approaches,
// Solnon's LAD being the canonical example).
//
// Where RI keeps search-time checks minimal and accepts a larger search
// space, a CSP solver pays per-state propagation cost to cut the space
// harder: after each assignment the candidate domains of all unassigned
// pattern nodes are filtered — the assigned target node is removed
// everywhere (injectivity, "AllDifferent"), and the domains of the
// assigned node's pattern neighbors are intersected with the actual
// target neighborhood of the assigned image (arc consistency along every
// pattern edge incident to the assignment). A domain wipe-out triggers
// immediate backtracking.
//
// This implementation is deliberately faithful to that trade-off rather
// than to LAD's exact filtering schedule: it is the repository's
// representative of the "spend time to shrink space" end of the design
// spectrum, used as a baseline in the ablation benchmarks. It supports
// the same graph.Semantics axis as internal/ri and internal/vf2
// (non-induced subgraph isomorphism by default, induced and
// homomorphism on request), so all three engines cross-validate each
// other under every semantics.
package lad

import (
	"context"
	"time"

	"parsge/internal/bitset"
	"parsge/internal/domain"
	"parsge/internal/graph"
	"parsge/internal/order"
)

// Options configures an enumeration run.
type Options struct {
	// Limit stops after this many matches (0 = all).
	Limit int64
	// Visit is called per match with the mapping indexed by pattern
	// node id (reused slice; copy to retain). Returning false stops.
	Visit func(mapping []int32) bool
	// Ctx, when non-nil, cooperatively aborts the run soon after the
	// context is cancelled (polled every cancelCheckMask+1 states).
	Ctx context.Context
	// Domain is the preprocessing configuration domain.Prepare runs (the
	// resolved plan is reported in Result.PreprocStats). Its Kernel also
	// selects the per-state propagation: under the bitset kernel the
	// neighborhood intersections and induced subtractions are
	// word-parallel row ops on graph.BitGraph instead of per-neighbor
	// bit edits. Its Semantics' zero value normalizes to non-induced
	// subgraph isomorphism; under graph.Homomorphism the AllDifferent
	// propagation is skipped (no injectivity), under graph.InducedIso
	// the propagation additionally removes the images' neighborhoods
	// from the domains of pattern non-neighbors.
	Domain domain.Options
}

// Result reports an enumeration run.
type Result struct {
	Matches int64
	// States counts assignments attempted (search tree nodes).
	States int64
	// Propagations counts domain-filter passes — the extra work this
	// algorithm family invests per state.
	Propagations int64
	PreprocTime  time.Duration
	// PreprocStats reports the resolved filter plan and per-filter
	// timings of domain preprocessing.
	PreprocStats *domain.ComputeStats
	MatchTime    time.Duration
	Aborted      bool
	// Unsatisfiable is set when initial domains prove zero matches.
	Unsatisfiable bool
}

// TotalTime returns preprocessing plus match time.
func (r Result) TotalTime() time.Duration { return r.PreprocTime + r.MatchTime }

const cancelCheckMask = 0xFF

// solver carries the DFS state. Domains are saved by copy per depth —
// simple and adequate for a baseline (LAD itself uses smarter trailing).
type solver struct {
	gp, gt    *graph.Graph
	ord       *order.Ordering
	opts      Options
	injective bool
	induced   bool
	// rows are the target's bitset adjacency rows under the bitset
	// kernel (nil otherwise); propagation uses them for word-parallel
	// neighborhood intersection and induced subtraction.
	rows *graph.BitGraph
	// scratch is the reusable target-sized set filterNeighbors builds
	// label-compatible neighborhoods in on the slice path.
	scratch *bitset.Set

	// domains[d] is the domain vector valid at depth d (one bitset per
	// pattern node). domains[0] comes from preprocessing; deeper levels
	// are copies refined by propagation.
	domains [][]*bitset.Set
	mapped  []int32 // ordering position → target
	nodeMap []int32 // pattern node → target, for Visit

	matches      int64
	states       int64
	propagations int64
	done         <-chan struct{}
	stopped      bool
	aborted      bool
}

// Enumerate lists all labeled embeddings of gp in gt under the
// configured semantics using constraint propagation.
func Enumerate(gp, gt *graph.Graph, opts Options) Result {
	start := time.Now()
	res := Result{}
	dopts := opts.Domain
	dopts.Semantics = dopts.Semantics.Norm()

	gp = gp.Simplify() // duplicate pattern edges would poison degree pruning
	doms, dstats := domain.Prepare(gp, gt, dopts)
	res.PreprocStats = &dstats
	if doms.AnyEmpty() {
		res.Unsatisfiable = true
		res.PreprocTime = time.Since(start)
		return res
	}
	ord, err := order.Compute(gp, order.Options{DomainSizes: doms.Sizes(), DomainTieBreak: true})
	if err != nil {
		// Options above are always valid for a computed domain set.
		panic(err)
	}
	res.PreprocTime = time.Since(start)

	n := gp.NumNodes()
	// Homomorphic images may coincide, so only injective semantics rule
	// out patterns larger than the target.
	if n == 0 || (dopts.Semantics.Injective() && n > gt.NumNodes()) {
		return res
	}

	if opts.Ctx != nil && opts.Ctx.Err() != nil {
		res.Aborted = true
		return res
	}
	s := &solver{
		gp:        gp,
		gt:        gt,
		ord:       ord,
		opts:      opts,
		injective: dopts.Semantics.Injective(),
		induced:   dopts.Semantics.Induced(),
		rows:      dstats.Rows,
		scratch:   bitset.New(gt.NumNodes()),
		domains:   make([][]*bitset.Set, n+1),
		mapped:    make([]int32, n),
		nodeMap:   make([]int32, n),
	}
	if s.rows == nil {
		s.rows = domain.RowsFor(dopts.Kernel, dopts.Index, gt)
	}
	if opts.Ctx != nil {
		s.done = opts.Ctx.Done()
	}
	// Depth 0 domains alias the preprocessed ones; deeper levels are
	// allocated lazily as refined copies.
	level0 := make([]*bitset.Set, n)
	for v := int32(0); v < int32(n); v++ {
		level0[v] = doms.Of(v)
	}
	s.domains[0] = level0

	matchStart := time.Now()
	s.search(0)
	res.MatchTime = time.Since(matchStart)
	res.Matches = s.matches
	res.States = s.states
	res.Propagations = s.propagations
	res.Aborted = s.aborted
	return res
}

// search assigns the pattern node at ordering position pos.
func (s *solver) search(pos int) {
	if pos == len(s.ord.Seq) {
		s.emit()
		return
	}
	u := s.ord.Seq[pos]
	dom := s.domains[pos][u]
	dom.ForEach(func(vti int) bool {
		vt := int32(vti)
		s.states++
		if s.states&cancelCheckMask == 0 && s.done != nil {
			select {
			case <-s.done:
				s.aborted = true
				s.stopped = true
				return false
			default:
			}
		}
		if !s.selfLoopsOK(u, vt) {
			return true
		}
		s.mapped[pos] = vt
		if s.propagate(pos, u, vt) {
			s.search(pos + 1)
		}
		return !s.stopped
	})
}

// selfLoopsOK verifies self-loop labels, which domains do not encode:
// pattern self-loops need a label-compatible target self-loop, and under
// induced semantics a target self-loop is forbidden when the pattern
// node has none.
func (s *solver) selfLoopsOK(u, vt int32) bool {
	adj := s.gp.OutNeighbors(u)
	labs := s.gp.OutEdgeLabels(u)
	hasLoop := false
	for i, w := range adj {
		if w == u {
			hasLoop = true
			if !s.gt.HasEdgeLabeled(vt, vt, labs[i]) {
				return false
			}
		}
	}
	if s.induced && !hasLoop && s.gt.HasEdge(vt, vt) {
		return false
	}
	return true
}

// propagate refines the next level's domains after assigning u→vt at
// position pos. It returns false on a wipe-out (some unassigned domain
// became empty), in which case the branch is pruned.
func (s *solver) propagate(pos int, u, vt int32) bool {
	s.propagations++
	n := s.gp.NumNodes()
	cur := s.domains[pos]
	next := s.domains[pos+1]
	if next == nil {
		next = make([]*bitset.Set, n)
		for i := range next {
			next[i] = bitset.New(s.gt.NumNodes())
		}
		s.domains[pos+1] = next
	}

	// Start from the parent level, then remove the assigned target from
	// every other domain (AllDifferent/forward checking) — injective
	// semantics only: homomorphic images may coincide.
	for v := int32(0); v < int32(n); v++ {
		next[v].Copy(cur[v])
	}
	assignedPos := s.ord.Pos
	if s.injective {
		for v := int32(0); v < int32(n); v++ {
			if assignedPos[v] <= int32(pos) {
				continue // already assigned (including u itself)
			}
			next[v].Clear(int(vt))
		}
	}
	// Pin u's domain to the chosen value so later propagation through u
	// stays exact.
	next[u].ClearAll()
	next[u].Set(int(vt))

	// Induced semantics: a pattern non-edge between u and an unassigned
	// w forbids the corresponding target edge, per direction — so w's
	// domain must exclude the matching neighborhood of vt.
	if s.induced {
		for w := int32(0); w < int32(n); w++ {
			if w == u || assignedPos[w] <= int32(pos) {
				continue
			}
			if !s.gp.HasEdge(u, w) {
				if s.rows != nil {
					next[w].AndNot(s.rows.Out[vt])
				} else {
					for _, wt := range s.gt.OutNeighbors(vt) {
						next[w].Clear(int(wt))
					}
				}
			}
			if !s.gp.HasEdge(w, u) {
				if s.rows != nil {
					next[w].AndNot(s.rows.In[vt])
				} else {
					for _, wt := range s.gt.InNeighbors(vt) {
						next[w].Clear(int(wt))
					}
				}
			}
		}
	}

	// Arc consistency along every pattern edge incident to u: unassigned
	// out-neighbors must lie in vt's out-neighborhood with a matching
	// edge label; symmetrically for in-neighbors.
	var outLabRows, inLabRows map[graph.Label][]*bitset.Set
	if s.rows != nil && s.rows.HasLabelRows() {
		outLabRows, inLabRows = s.rows.OutLab, s.rows.InLab
	}
	if !s.filterNeighbors(next, pos, vt, s.gp.OutNeighbors(u), s.gp.OutEdgeLabels(u), s.gt.OutNeighbors(vt), s.gt.OutEdgeLabels(vt), outLabRows) {
		return false
	}
	if !s.filterNeighbors(next, pos, vt, s.gp.InNeighbors(u), s.gp.InEdgeLabels(u), s.gt.InNeighbors(vt), s.gt.InEdgeLabels(vt), inLabRows) {
		return false
	}
	// Wipe-out check over all unassigned domains.
	for v := int32(0); v < int32(n); v++ {
		if assignedPos[v] > int32(pos) && next[v].Empty() {
			return false
		}
	}
	return true
}

// filterNeighbors intersects the domains of u's unassigned pattern
// neighbors with the edge-label-compatible neighborhood of vt. Under the
// bitset kernel's label rows (labRows non-nil) the compatible
// neighborhood is a precomputed row and the intersection is a single
// And; otherwise it is built per edge label in the solver's reusable
// scratch set.
func (s *solver) filterNeighbors(next []*bitset.Set, pos int, vt int32, pAdj []int32, pLabs []graph.Label,
	tAdj []int32, tLabs []graph.Label, labRows map[graph.Label][]*bitset.Set) bool {

	for i, w := range pAdj {
		if s.ord.Pos[w] <= int32(pos) {
			// Already assigned: consistency was enforced when w was
			// assigned (w's domain was a singleton at its level) or
			// will fail immediately through the pinned domain.
			continue
		}
		want := pLabs[i]
		if labRows != nil {
			rows := labRows[want]
			if rows == nil {
				// Label absent from the target alphabet: the compatible
				// neighborhood is empty, wiping out w's domain.
				return false
			}
			next[w].And(rows[vt])
			if next[w].Empty() {
				return false
			}
			continue
		}
		s.scratch.ClearAll()
		for k, wt := range tAdj {
			if tLabs[k] == want {
				s.scratch.Set(int(wt))
			}
		}
		next[w].And(s.scratch)
		if next[w].Empty() {
			return false
		}
	}
	return true
}

// emit records a match.
func (s *solver) emit() {
	s.matches++
	if s.opts.Visit != nil {
		for i, vt := range s.mapped {
			s.nodeMap[s.ord.Seq[i]] = vt
		}
		if !s.opts.Visit(s.nodeMap) {
			// Visit stop = abort (truncated result); limit stop is not.
			s.stopped = true
			s.aborted = true
			return
		}
	}
	if s.opts.Limit > 0 && s.matches >= s.opts.Limit {
		s.stopped = true
	}
}

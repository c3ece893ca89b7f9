package domain

import "parsge/internal/graph"

// Kernel selects the candidate-intersection implementation of the
// enumeration hot paths: dense bitset adjacency rows (word-parallel set
// ops via graph.BitGraph) or the classic sorted-slice CSR scans. The
// zero value Auto lets the scheduler pick per query.
type Kernel int

const (
	// KernelAuto picks per target by size and row density (see
	// ResolveKernel).
	KernelAuto Kernel = iota
	// KernelBitset forces the bitset rows; above graph.DenseRowLimit
	// they cannot be built and the engines silently fall back to the
	// slice paths, with identical results.
	KernelBitset
	// KernelSlice forces the sorted-slice CSR paths, disabling the
	// BitGraph everywhere. The ablation baseline.
	KernelSlice
)

// String names the kernel for logs and bench tables.
func (k Kernel) String() string {
	switch k {
	case KernelAuto:
		return "auto"
	case KernelBitset:
		return "bitset"
	case KernelSlice:
		return "slice"
	default:
		return "kernel(?)"
	}
}

// ResolveKernel normalizes Auto (explicit choices pass through): bitset
// only when nodes ≤ graph.DenseRowLimit and 128·arcs ≥ nodes², arcs
// counted directed — an average row holds a set bit per two 64-bit
// words. Sparser rows are mostly zero words: on PDBSv1 (~2.3 arcs per
// node and direction) each AC support test scanned a 218-word row for
// two bits, and the rows held ~186 of a ~211 MB serving heap.
func ResolveKernel(k Kernel, nodes, arcs int) Kernel {
	if k != KernelAuto {
		return k
	}
	if nodes <= graph.DenseRowLimit && 128*arcs >= nodes*nodes {
		return KernelBitset
	}
	return KernelSlice
}

// RowsFor is where every engine and the propagation acquire rows: nil
// when k resolves to the slice paths on gt, else the Index's cached
// rows when ix was built for gt, or fresh ones.
func RowsFor(k Kernel, ix *Index, gt *graph.Graph) *graph.BitGraph {
	switch {
	case ResolveKernel(k, gt.NumNodes(), gt.NumEdges()) != KernelBitset:
		return nil
	case ix != nil && ix.nt == gt.NumNodes():
		return ix.Rows(gt)
	}
	return graph.NewBitGraph(gt)
}

// Cache-conscious node reordering for the compiled network.
//
// The drain loop's per-event working set is a handful of dense per-node
// arrays (the CSR gate adjacency, the flag vectors, the analyzer's arrival
// state). Construction order scatters electrically adjacent nodes across
// those arrays — a generated chip interleaves datapath bits with control,
// an extracted netlist follows layout-extraction order — so consecutive
// events touch cache lines almost at random. Reverse Cuthill–McKee over
// the gate/source-drain adjacency fixes that: nodes that fire together
// (members of one channel-connected group and their gating nodes) receive
// neighbouring rows, so one event's loads prefetch its consequences'.
//
// The walk runs once per layout: a compile handed an earlier generation's
// Compact (CompileOptions.Prev) extends that layout instead of walking
// again.
package netlist

// buildOrder computes the row layout of nw: the RCM permutation, or the
// identity when reorder is false. It is a deterministic function of the
// network: BFS sources and neighbour visits are ordered by (degree, index),
// so renaming-invariance suites see the same layout on every run.
func buildOrder(nw *Network, reorder bool) (perm, inv []int32) {
	n := len(nw.Nodes)
	perm, inv = make([]int32, n), make([]int32, n)
	if !reorder {
		for i := range perm {
			perm[i] = int32(i)
			inv[i] = int32(i)
		}
		return perm, inv
	}

	// Locality adjacency in CSR form: for every device, gate-A, gate-B
	// and A-B edges, rails excluded (they touch everything and carry no
	// locality signal).
	deg := make([]int32, n)
	addDeg := func(a, b *Node) {
		if a.IsRail() || b.IsRail() || a == b {
			return
		}
		deg[a.Index]++
		deg[b.Index]++
	}
	for _, t := range nw.Trans {
		addDeg(t.Gate, t.A)
		addDeg(t.Gate, t.B)
		addDeg(t.A, t.B)
	}
	start := make([]int32, n+1)
	for i := 0; i < n; i++ {
		start[i+1] = start[i] + deg[i]
	}
	adj := make([]int32, start[n])
	fill := make([]int32, n)
	copy(fill, start[:n])
	addEdge := func(a, b *Node) {
		if a.IsRail() || b.IsRail() || a == b {
			return
		}
		adj[fill[a.Index]] = int32(b.Index)
		fill[a.Index]++
		adj[fill[b.Index]] = int32(a.Index)
		fill[b.Index]++
	}
	for _, t := range nw.Trans {
		addEdge(t.Gate, t.A)
		addEdge(t.Gate, t.B)
		addEdge(t.A, t.B)
	}

	rcm(nw, start, adj, deg, perm, inv)
	return perm, inv
}

// extendOrder returns a layout map (Perm or InvPerm) of an earlier
// generation grown to n nodes: the nodes created since take the next rows
// in index order, so the new entries are the identity in both directions.
// With nothing new the earlier slice itself is returned — layouts are
// immutable and may be shared between compiles.
func extendOrder(prev []int32, n int) []int32 {
	if len(prev) == n {
		return prev
	}
	out := make([]int32, n)
	for i := copy(out, prev); i < n; i++ {
		out[i] = int32(i)
	}
	return out
}

// rcm fills perm/inv with the reverse Cuthill–McKee ordering: per
// component, breadth-first from a minimum-degree source with neighbours
// visited in (degree, index) order, the whole sequence reversed; rails
// are pinned to the last rows (their entries are dead in the hot loop).
func rcm(nw *Network, start, adj, deg, perm, inv []int32) {
	n := len(nw.Nodes)
	// Sources in (degree, index) order; a simple index sort over a
	// degree-bucketed permutation keeps this O(n log n) worst case.
	bySize := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		if !nw.Nodes[i].IsRail() {
			bySize = append(bySize, int32(i))
		}
	}
	sortByDegreeIndex(bySize, deg)

	order := make([]int32, 0, n)
	visited := make([]bool, n)
	queue := make([]int32, 0, n)
	scratch := make([]int32, 0, 16)
	for _, src := range bySize {
		if visited[src] {
			continue
		}
		visited[src] = true
		queue = append(queue[:0], src)
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			order = append(order, u)
			scratch = scratch[:0]
			for _, v := range adj[start[u]:start[u+1]] {
				if !visited[v] {
					visited[v] = true
					scratch = append(scratch, v)
				}
			}
			sortByDegreeIndex(scratch, deg)
			queue = append(queue, scratch...)
		}
	}
	// Reverse (the RCM step): low rows become the periphery-to-core walk
	// that minimizes bandwidth of the permuted adjacency.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	// Rails last, in index order.
	for i := 0; i < n; i++ {
		if nw.Nodes[i].IsRail() {
			order = append(order, int32(i))
		}
	}
	for row, orig := range order {
		perm[orig] = int32(row)
		inv[row] = int32(orig)
	}
}

// sortByDegreeIndex sorts node ids by (degree, id) — insertion sort for
// the short neighbour lists, shell gaps for the full source sweep.
func sortByDegreeIndex(ids []int32, deg []int32) {
	less := func(a, b int32) bool {
		if deg[a] != deg[b] {
			return deg[a] < deg[b]
		}
		return a < b
	}
	for gap := len(ids) / 2; gap > 0; gap /= 2 {
		for i := gap; i < len(ids); i++ {
			v := ids[i]
			j := i
			for ; j >= gap && less(v, ids[j-gap]); j -= gap {
				ids[j] = ids[j-gap]
			}
			ids[j] = v
		}
	}
}

package sched

// RegionFence supplies per-region admission clocks to PopFrontierFenced.
// The caller partitions nodes into regions (for the analyzer: the
// weakly-connected components of the compiled gate graph, see
// netlist.Compact.Regions) and maintains a span per region — half the
// smallest stage delay committed INTO that region. A frontier item opens
// its region's clock at its own time; later items of the same region are
// admitted while they stay within the region's span of that clock. Items
// of other regions never consult it, so one region's tight fence (a
// just-committed short delay) no longer caps how far the batch reads
// ahead in regions that are electrically independent of it.
//
// Like the global span in PopFrontier, this is a throughput heuristic
// only: batches remain strict queue-order prefixes, and the drain's
// commit-time validation is what guarantees the commit sequence equals
// the serial pop sequence.
type RegionFence struct {
	// Region maps a node id to its region; Span holds each region's
	// admission span (<= 0: unfenced). Both are caller-owned.
	Region []int32
	Span   []float64

	head  []float64 // region -> batch head clock
	stamp []uint32  // region -> batch the clock belongs to
	cur   uint32
}

// Reset sizes the fence for the given region count and clears every clock.
func (f *RegionFence) Reset(regions int) {
	if cap(f.head) < regions {
		f.head = make([]float64, regions)
		f.stamp = make([]uint32, regions)
	}
	f.head = f.head[:regions]
	f.stamp = f.stamp[:regions]
	for i := range f.stamp {
		f.stamp[i] = 0
	}
	f.cur = 0
}

// Begin opens a new batch: every region's clock resets lazily (stamped
// generations, no per-batch sweep).
func (f *RegionFence) Begin() { f.cur++ }

// Admit reports whether it fits the current batch under its region's
// clock, opening the clock at it.T when the region is new to the batch.
func (f *RegionFence) Admit(it Item) bool {
	r := f.Region[it.Node]
	if f.stamp[r] != f.cur {
		f.stamp[r] = f.cur
		f.head[r] = it.T
		return true
	}
	span := f.Span[r]
	return span <= 0 || it.T <= f.head[r]+span
}

// PopFrontierFenced pops a frontier batch like PopFrontier, but fenced
// per region: up to max items in strict queue order, stopping when the
// next item falls outside its own region's admission window. Returns the
// batch (appended to dst, reset to length zero first) and whether the
// batch was cut short by a fence rather than by max or queue exhaustion.
func (q *Queue) PopFrontierFenced(dst []Item, max int, f *RegionFence) ([]Item, bool) {
	dst = dst[:0]
	if max <= 0 || q.Len() == 0 {
		return dst, false
	}
	f.Begin()
	first := q.Pop()
	f.Admit(first) // opens the first region's clock
	dst = append(dst, first)
	for len(dst) < max && q.Len() > 0 {
		if !f.Admit(q.Peek()) {
			return dst, true
		}
		dst = append(dst, q.Pop())
	}
	return dst, false
}

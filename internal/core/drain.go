package core

// DrainStats are cumulative counters of the drains of one analyzer (the Run
// plus any Reanalyze calls), exported by crystald as the /metrics drain.*
// fields. Every drain counts its queue traffic and the outcome of each
// candidate arrival it offered a node: Pops − StalePops is the number of
// propagation rounds (guard cut-offs included); Improved + Earlier + TieLost
// + Pruned is the number of candidates, one per stage evaluation that
// produced a delay plus the seeds, and TieLost the evaluations that
// recomputed an arrival the node already held.
type DrainStats struct {
	Pops      int64 `json:"pops"`       // queue entries popped
	StalePops int64 `json:"stale_pops"` // of those, superseded by a later entry for the same (node, transition)
	MaxQueue  int64 `json:"max_queue"`  // most entries the queue held at a pop

	Improved int64 `json:"improved"` // candidates that became the node's arrival
	Earlier  int64 `json:"earlier"`  // candidates earlier than the arrival already held
	TieLost  int64 `json:"tie_lost"` // candidates at exactly the held time that lost the tie-break
	Pruned   int64 `json:"pruned"`   // candidates for a rail, or for a level the static snapshot rules out

	// Always zero: nothing writes them. bench/probes.go (the
	// core.spec_useful_ratio, core.fence_stalls and core.batch_size probes)
	// is their only reader and goes with them.
	Batches     int64 `json:"-"`
	BatchItems  int64 `json:"-"`
	FenceStalls int64 `json:"-"`
	SpecLive    int64 `json:"-"`
	SpecUsed    int64 `json:"-"`
}

// Accumulate folds into d what one analyzer did between two readings of its
// counters; the high-water mark is the later reading's.
func (d *DrainStats) Accumulate(before, after DrainStats) {
	d.Pops += after.Pops - before.Pops
	d.StalePops += after.StalePops - before.StalePops
	d.Improved += after.Improved - before.Improved
	d.Earlier += after.Earlier - before.Earlier
	d.TieLost += after.TieLost - before.TieLost
	d.Pruned += after.Pruned - before.Pruned
	d.MaxQueue = max(d.MaxQueue, after.MaxQueue)
}

// DrainStats returns the drain counters accumulated so far.
func (a *Analyzer) DrainStats() DrainStats { return a.stats }

// Package sched provides the deterministic event-scheduling machinery the
// timing analyzer's drain loop runs on: a priority queue with a strict
// total order on (time, node, transition), a frontier batcher that carves
// off runs of events safe to evaluate together, and a worker pool whose
// goroutines carry pprof labels.
//
// Determinism is the package's contract. The queue's order is total — two
// distinct items never compare equal — so the pop sequence is a pure
// function of the push multiset, independent of push interleaving or of
// the heap's internal arrangement. The analyzer relies on this to keep
// parallel drains bit-identical to serial ones: whatever the batching, the
// commit order is the queue order.
package sched

import "math"

// Item is one pending propagation: the (node, transition) pair becomes
// ready at time T. The scheduler does not interpret T beyond ordering;
// staleness (a fresher arrival superseding a queued one) is the caller's
// protocol, handled at pop time.
type Item struct {
	T    float64
	Node int32
	Tr   uint8
}

// Less is the strict total order of the scheduler: time, then node, then
// transition. A mere partial order on time would let the pop order of
// tied events depend on the queue's internal state — i.e. on every
// unrelated event ever pushed — making feedback-guard cutoffs
// irreproducible between runs.
func Less(a, b Item) bool {
	if a.T != b.T {
		return a.T < b.T
	}
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	return a.Tr < b.Tr
}

// Queue is a priority queue of Items under Less. The zero value is an
// empty queue ready for use. Not safe for concurrent use — the analyzer
// owns it from the serial commit side of the drain.
//
// Internally a 4-ary implicit heap of packed keys: an item is stored as two
// integers whose lexicographic order is Less, so a comparison is two
// integer compares instead of a float compare plus two tie-break branches,
// and the four children of a node share a cache line (a key is 16 bytes).
// Pop sifts bottom-up: the hole at the root descends along least children
// to a leaf without consulting the displaced last element — which nearly
// always belongs near the bottom — and that element then rises from the
// leaf, usually by zero levels. The pop sequence is a function of the push
// multiset alone either way.
type Queue struct {
	s []key
}

// key is an Item packed order-preservingly: t is the arrival time's bits
// mapped so unsigned order equals float order, nt is node<<8 | transition.
type key struct {
	t, nt uint64
}

func (a key) less(b key) bool {
	return a.t < b.t || (a.t == b.t && a.nt < b.nt)
}

// pack encodes it. Adding zero folds -0 into +0, which Less ties too;
// flipping the sign bit of non-negative floats and every bit of negative
// ones makes the bit patterns ascend with the values.
func pack(it Item) key {
	b := math.Float64bits(it.T + 0)
	if b>>63 != 0 {
		b = ^b
	} else {
		b |= 1 << 63
	}
	return key{b, uint64(uint32(it.Node))<<8 | uint64(it.Tr)}
}

func (k key) item() Item {
	b := k.t
	if b>>63 != 0 {
		b &^= 1 << 63
	} else {
		b = ^b
	}
	return Item{T: math.Float64frombits(b), Node: int32(k.nt >> 8), Tr: uint8(k.nt)}
}

// Len returns the number of queued items (including any stale ones the
// caller has yet to skip).
func (q *Queue) Len() int { return len(q.s) }

// Peek returns the minimum item without removing it. The queue must be
// non-empty.
func (q *Queue) Peek() Item { return q.s[0].item() }

// Reset empties the queue, keeping its storage for reuse.
func (q *Queue) Reset() { q.s = q.s[:0] }

// Push inserts an item.
func (q *Queue) Push(it Item) {
	k := pack(it)
	q.s = append(q.s, k)
	s := q.s
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !k.less(s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = k
}

// Pop removes and returns the minimum item. The queue must be non-empty.
func (q *Queue) Pop() Item {
	s := q.s
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s = s[:n]
	q.s = s
	if n == 0 {
		return top.item()
	}
	// Walk the hole down to a leaf along the least of up to four children.
	i := 0
	for c := 1; c < n; c = 4*i + 1 {
		end := c + 4
		if end > n {
			end = n
		}
		min := c
		for j := c + 1; j < end; j++ {
			if s[j].less(s[min]) {
				min = j
			}
		}
		s[i] = s[min]
		i = min
	}
	// Drop the displaced last element in, raising it while it precedes
	// its parent.
	for i > 0 {
		p := (i - 1) / 4
		if !last.less(s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = last
	return top.item()
}

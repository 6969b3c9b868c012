// Package sched provides the event queue the timing analyzer's drain loop
// runs on: a priority queue with a strict total order on (time, node,
// transition).
//
// Determinism is the package's contract. The queue's order is total — two
// distinct items never compare equal — so the pop sequence is a pure
// function of the push multiset, independent of push interleaving or of
// the queue's internal arrangement. The analyzer relies on this to keep an
// incremental re-analysis bit-identical to a from-scratch one, feedback-guard
// cut-offs included.
package sched

import (
	"math"
	"math/bits"
)

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
// empty queue ready for use. Not safe for concurrent use.
//
// An item is stored as a packed key, two integers whose lexicographic
// order is Less. The queue is a monotone radix queue over that key: a
// drain almost never pushes below what it last popped (a consequence lands
// at or after its cause), so a key is filed by where it first differs from floor,
// the last key popped. The highest differing 4-bit digit's position is its
// level (levels below ntDigits split ties on time by the node/transition
// word, the 16 above them split by time) and its own digit there, always
// greater than the floor's, its bucket within the level. Keys of a higher
// bucket all exceed keys of a lower one, so the minimum is in the lowest
// non-empty bucket (two bit scans), and a bucket is a linked list with its
// least key at the head: Peek reads one entry and moves nothing. Pop takes
// that head, makes it the floor, and relinks the rest of its bucket into
// strictly lower levels — index writes, no key copies, about four per pop
// at chip scale, where the 4-ary heap this replaces compared some thirty keys.
//
// Entries live in one slab (keys and next; slot 0 is unused so that 0 ends
// a list) with a free list through next: 20 bytes for each of the most
// entries ever live at once. A key pushed BELOW the floor (a stage whose
// delay rounds to zero lands at the popped time, and on a lower-indexed node
// that precedes the floor; nothing stops an arbitrary caller either) goes to
// below, a 4-ary heap served first — all of it precedes the floor, hence
// every bucketed key.
type Queue struct {
	keys   []key
	next   []int32
	free   int32 // head of the free-slot list
	n      int   // live entries, buckets and below together
	floor  key
	levels uint32            // bit l set: level l has a non-empty bucket
	digits [numLevels]uint16 // per level, bit d set: bucket l<<4|d is non-empty
	head   [numLevels << 4]int32
	below  heap4
}

const (
	ntDigits  = 10 // key.nt is a 32-bit node and an 8-bit transition
	numLevels = ntDigits + 16
)

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
func (q *Queue) Len() int { return q.n }

// Reset empties the queue, keeping its storage for reuse.
func (q *Queue) Reset() {
	*q = Queue{keys: q.keys[:0], next: q.next[:0], below: q.below[:0]}
}

// Retained reports the bytes of entry storage the queue holds on to.
func (q *Queue) Retained() int { return 16*(cap(q.keys)+cap(q.below)) + 4*cap(q.next) }

// bucket places k (not below the floor) relative to the floor; bucket 0
// holds the floor's duplicates.
func (q *Queue) bucket(k key) int {
	if x := k.t ^ q.floor.t; x != 0 {
		p := (bits.Len64(x) - 1) >> 2
		return (ntDigits+p)<<4 | int(k.t>>(4*p))&15
	}
	x := k.nt ^ q.floor.nt
	if x == 0 {
		return 0
	}
	p := (bits.Len64(x) - 1) >> 2
	return p<<4 | int(k.nt>>(4*p))&15
}

// lowest returns the lowest non-empty bucket; there must be one.
func (q *Queue) lowest() int {
	l := bits.TrailingZeros32(q.levels)
	return l<<4 | bits.TrailingZeros16(q.digits[l])
}

// link puts slot i into the bucket its key belongs to, keeping the
// bucket's least key at the head.
func (q *Queue) link(i int32) {
	b := q.bucket(q.keys[i])
	h := q.head[b]
	switch {
	case h == 0:
		q.levels |= 1 << (b >> 4)
		q.digits[b>>4] |= 1 << (b & 15)
		fallthrough
	case q.keys[i].less(q.keys[h]):
		q.next[i] = h
		q.head[b] = i
	default:
		q.next[i] = q.next[h]
		q.next[h] = i
	}
}

// Push inserts an item.
func (q *Queue) Push(it Item) {
	k := pack(it)
	q.n++
	if k.less(q.floor) {
		q.below.push(k)
		return
	}
	i := q.free
	if i != 0 {
		q.free = q.next[i]
	} else {
		if len(q.keys) == 0 { // slot 0 ends lists
			q.keys, q.next = append(q.keys, key{}), append(q.next, 0)
		}
		i = int32(len(q.keys))
		q.keys, q.next = append(q.keys, key{}), append(q.next, 0)
	}
	q.keys[i] = k
	q.link(i)
}

// Peek returns the minimum item without removing it. The queue must be
// non-empty. It does not move the floor: a caller may still push anything
// at or after the last item popped without leaving the buckets.
func (q *Queue) Peek() Item {
	if len(q.below) > 0 {
		return q.below[0].item()
	}
	return q.keys[q.head[q.lowest()]].item()
}

// Pop removes and returns the minimum item. The queue must be non-empty.
func (q *Queue) Pop() Item {
	q.n--
	if len(q.below) > 0 {
		return q.below.pop().item()
	}
	b := q.lowest()
	i := q.head[b]
	rest := q.next[i]
	q.next[i] = q.free
	q.free = i
	if b == 0 && rest != 0 {
		q.head[0] = rest // more duplicates of the floor
		return q.floor.item()
	}
	q.head[b] = 0
	if q.digits[b>>4] &^= 1 << (b & 15); q.digits[b>>4] == 0 {
		q.levels &^= 1 << (b >> 4)
	}
	q.floor = q.keys[i]
	for rest != 0 {
		i, rest = rest, q.next[rest]
		q.link(i)
	}
	return q.floor.item()
}

// heap4 is a 4-ary implicit min-heap of keys: a node's four children share
// a cache line, and pop sifts bottom-up — the hole at the root descends
// along least children to a leaf, then the displaced last element (which
// nearly always belongs near the bottom) rises from there.
type heap4 []key

func (h *heap4) push(k key) {
	s := append(*h, k)
	*h = s
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

func (h *heap4) pop() key {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s = s[:n]
	*h = s
	if n == 0 {
		return top
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
	return top
}

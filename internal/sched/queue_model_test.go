package sched

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refQueue is the reference the radix queue is checked against: a slice
// kept sorted by Less, descending, so the minimum is the last element.
type refQueue []Item

func (r *refQueue) push(it Item) {
	s := *r
	i := sort.Search(len(s), func(i int) bool { return !Less(it, s[i]) })
	s = append(s, Item{})
	copy(s[i+1:], s[i:])
	s[i] = it
	*r = s
}

func (r *refQueue) pop() Item {
	s := *r
	it := s[len(s)-1]
	*r = s[:len(s)-1]
	return it
}

// pair drives a Queue and the reference with the same operations and fails
// the test at the first observable difference.
type pair struct {
	t    *testing.T
	q    Queue
	ref  refQueue
	pops int
}

func (p *pair) push(it Item) {
	p.q.Push(it)
	p.ref.push(it)
	if p.q.Len() != len(p.ref) {
		p.t.Fatalf("after pushing %+v: Len %d, reference holds %d", it, p.q.Len(), len(p.ref))
	}
}

func (p *pair) peek() Item {
	p.t.Helper()
	want := p.ref[len(p.ref)-1]
	if got := p.q.Peek(); got != want {
		p.t.Fatalf("peek before pop %d = %+v, want %+v", p.pops, got, want)
	}
	return want
}

func (p *pair) pop() Item {
	p.t.Helper()
	p.peek()
	want := p.ref.pop()
	if got := p.q.Pop(); got != want {
		p.t.Fatalf("pop %d = %+v, want %+v", p.pops, got, want)
	}
	if p.q.Len() != len(p.ref) {
		p.t.Fatalf("after pop %d: Len %d, reference holds %d", p.pops, p.q.Len(), len(p.ref))
	}
	p.pops++
	return want
}

func (p *pair) drain() {
	p.t.Helper()
	for len(p.ref) > 0 {
		p.pop()
	}
	if p.q.Len() != 0 {
		p.t.Fatalf("reference drained, queue still holds %d", p.q.Len())
	}
}

func TestQueueMatchesReference(t *testing.T) {
	t.Run("drain-shaped", func(t *testing.T) {
		// The zero value, 30k entries live, every push at or after the last pop.
		p := &pair{t: t}
		pops := 120000
		if testing.Short() {
			pops = 20000
		}
		for _, op := range drainTrace(30000, pops, 11) {
			if op.pop {
				p.pop()
			} else {
				p.push(op.it)
			}
		}
		if len(p.q.below) != 0 || cap(p.q.below) != 0 {
			t.Errorf("a monotone script reached the below-floor store (%d entries, cap %d)", len(p.q.below), cap(p.q.below))
		}
		if len(p.ref) != 0 || p.pops < pops {
			t.Fatalf("script ended with %d entries after %d pops", len(p.ref), p.pops)
		}
	})

	t.Run("adversarial", func(t *testing.T) {
		// No discipline at all: times across every magnitude and sign, or
		// apart only in their last mantissa bits, or straddling a power of
		// two; extreme nodes and transitions; pushes far below whatever was
		// popped last.
		rng := rand.New(rand.NewSource(2))
		times := []func() float64{
			func() float64 { return float64(rng.Intn(8)) * 0.25 },
			func() float64 { return math.Ldexp(rng.Float64()-0.5, rng.Intn(80)-40) },
			func() float64 { return math.Float64frombits(math.Float64bits(1e-9) + uint64(rng.Intn(4))) },
			func() float64 { return math.Nextafter(2, float64(rng.Intn(2)*4)) },
			func() float64 {
				return []float64{math.Inf(-1), math.Inf(1), math.Copysign(0, -1), 0, 5e-324, -5e-324}[rng.Intn(6)]
			},
		}
		nodes := []int32{0, 1, 2, 255, 256, 1 << 16, math.MaxInt32 - 1, math.MaxInt32}
		p := &pair{t: t}
		for step := 0; step < 60000; step++ {
			switch {
			case len(p.ref) > 0 && rng.Intn(5) < 2:
				p.pop()
			case step%9973 == 0:
				p.q.Reset()
				p.ref = p.ref[:0]
			default:
				p.push(Item{T: times[rng.Intn(len(times))](), Node: nodes[rng.Intn(len(nodes))], Tr: uint8(rng.Intn(2) * (1 + 254*rng.Intn(2)))})
			}
		}
		if cap(p.q.below) == 0 {
			t.Error("the script never reached the below-floor store")
		}
		p.drain()
	})

	t.Run("tie bursts", func(t *testing.T) {
		// 1,000 keys at one instant across nodes and both transitions —
		// pushed shuffled, popped while more of the same instant arrive on
		// both sides of the last pop.
		rng := rand.New(rand.NewSource(3))
		for _, tm := range []float64{0, 5e-324, 1e-9, math.Inf(1)} {
			p := &pair{t: t}
			at := func() float64 {
				if tm == 0 && rng.Intn(2) == 0 {
					return math.Copysign(0, -1) // ties with +0
				}
				return tm
			}
			p.push(Item{T: -1, Node: 7})
			p.pop()
			for _, i := range rng.Perm(1000) {
				p.push(Item{T: at(), Node: int32(i / 2 * 37), Tr: uint8(i % 2)})
			}
			for i := 0; i < 1500; i++ {
				if rng.Intn(3) == 0 {
					p.push(Item{T: at(), Node: int32(rng.Intn(500 * 37)), Tr: uint8(rng.Intn(2))})
				}
				if len(p.ref) > 0 {
					p.pop()
				}
			}
			p.drain()
		}
	})

	t.Run("below the floor", func(t *testing.T) {
		rng := rand.New(rand.NewSource(4))
		p := &pair{t: t}
		for i := 0; i < 400; i++ {
			p.push(Item{T: 10 + float64(rng.Intn(200)), Node: int32(rng.Intn(50)), Tr: uint8(rng.Intn(2))})
		}
		for round := 0; len(p.ref) > 0; round++ {
			last := p.pop()
			if len(p.ref) == 0 {
				break
			}
			// After a Peek: one push between the last pop and the head, one
			// before the last pop, one far before everything.
			head := p.peek()
			p.push(Item{T: (last.T + head.T) / 2, Node: int32(rng.Intn(50))})
			if round%3 == 0 {
				p.push(Item{T: last.T - float64(rng.Intn(3)), Node: max(0, last.Node-int32(rng.Intn(2)))})
				p.push(Item{T: -float64(round), Node: int32(rng.Intn(50)), Tr: 1})
			}
			if round > 300 { // stop feeding it
				p.drain()
			}
		}
		if cap(p.q.below) == 0 {
			t.Error("the script never reached the below-floor store")
		}
	})

	t.Run("reset", func(t *testing.T) {
		p := &pair{t: t}
		for i := 0; i < 100; i++ {
			p.push(Item{T: 1e-9 * float64(100+i%17), Node: int32(i)})
		}
		for i := 0; i < 40; i++ {
			p.pop()
		}
		p.push(Item{T: 0, Node: 3}) // below the floor
		p.q.Reset()
		p.ref = p.ref[:0]
		if p.q.Len() != 0 {
			t.Fatalf("Len after Reset = %d", p.q.Len())
		}
		for i := 0; i < 100; i++ {
			p.push(Item{T: -1e-9 * float64(i%13), Node: int32(i)})
		}
		if len(p.q.below) != 0 {
			t.Errorf("Reset kept the floor: %d of 100 pushes landed below it", len(p.q.below))
		}
		p.drain()
	})
}

// TestQueueStorageBounded: a million pushes and pops that never hold more
// than 2^15 entries keep one slab of that many slots (20 bytes each, plus
// the growth slack of append), and the zero value holds nothing.
func TestQueueStorageBounded(t *testing.T) {
	const live = 1 << 15
	rng := rand.New(rand.NewSource(6))
	var q Queue
	pushes, peak := 0, 0
	push := func(tm float64) {
		q.Push(Item{T: tm, Node: int32(rng.Intn(1 << 20)), Tr: uint8(rng.Intn(2))})
		pushes++
		peak = max(peak, q.Len())
	}
	for i := 0; i < live/2; i++ {
		push(0)
	}
	for pushes < 1000000 {
		it := q.Pop()
		for n := 1 + rng.Intn(2); n > 0 && q.Len() < live; n-- {
			push(it.T + rng.ExpFloat64()*1e-10)
		}
	}
	if peak != live {
		t.Fatalf("the script peaked at %d live entries, want %d", peak, live)
	}
	if got, limit := q.Retained(), 24*live*5/4; got > limit {
		t.Errorf("%d pushes with at most %d live retain %d bytes, limit %d", pushes, live, got, limit)
	}
	if cap(q.below) != 0 {
		t.Errorf("a monotone script allocated the below-floor store (cap %d)", cap(q.below))
	}
	t.Logf("%d pushes, at most %d live: %d bytes retained (%.1f per slot)", pushes, live, q.Retained(), float64(q.Retained())/live)
	q = Queue{}
	if got := q.Retained(); got != 0 {
		t.Errorf("the zero value retains %d bytes", got)
	}
}

// TestPeekDoesNotMoveFloor replays the analyzer's replay merge: Peek at the
// head, then (a replay being due first) push consequences that land between
// the last pop and the head just peeked. If Peek advanced the floor to the
// head, every one of those would fall below it.
func TestPeekDoesNotMoveFloor(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p := &pair{t: t}
	for i := 0; i < 300; i++ {
		p.push(Item{T: float64(1+rng.Intn(1000)) * 1e-10, Node: int32(rng.Intn(4096)), Tr: uint8(rng.Intn(2))})
	}
	between := 0
	for len(p.ref) > 0 {
		last := p.pop()
		for k := 0; k < 3 && len(p.ref) > 0; k++ {
			head := p.peek()
			// A replay at the last pop's time with a delay short of the head.
			c := Item{T: last.T + rng.Float64()*(head.T-last.T), Node: int32(rng.Intn(4096)), Tr: uint8(rng.Intn(2))}
			if Less(c, last) || p.pops > 2000 {
				continue
			}
			p.push(c)
			between++
		}
		if n := len(p.q.below); n != 0 {
			t.Fatalf("after pop %d: %d entries in the below-floor store", p.pops, n)
		}
	}
	if between < 1000 || cap(p.q.below) != 0 {
		t.Fatalf("%d pushes between pop and peeked head; below-floor store cap %d", between, cap(p.q.below))
	}
}

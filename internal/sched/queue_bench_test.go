package sched

import (
	"math/rand"
	"testing"
)

// traceOp is one step of a queue script: push it, or pop.
type traceOp struct {
	it  Item
	pop bool
}

// drainTrace builds a drain-shaped script the way the analyzer produces
// one: a seed burst at t=0, then pops whose consequences land an
// exponentially distributed delay later — twice over, at the same instant
// on the same node of two identical tiles, as replicated blocks do — with
// the live count hovering around live. About a third of the pops have no
// consequence (stale entries). The script ends with the queue drained.
func drainTrace(live, pops int, seed int64) []traceOp {
	const tile = 1 << 16
	rng := rand.New(rand.NewSource(seed))
	var q Queue
	var ops []traceOp
	push := func(it Item) {
		q.Push(it)
		ops = append(ops, traceOp{it: it})
	}
	for i := 0; i < live/8+1; i++ {
		push(Item{Node: int32(rng.Intn(2 * tile)), Tr: uint8(rng.Intn(2))})
	}
	for n := 0; q.Len() > 0; n++ {
		it := q.Pop()
		ops = append(ops, traceOp{pop: true})
		if n >= pops || rng.Intn(3) == 0 || (q.Len() >= live && rng.Intn(2) == 0) {
			continue
		}
		c := Item{T: it.T + rng.ExpFloat64()*1e-10, Node: int32(rng.Intn(tile)), Tr: uint8(rng.Intn(2))}
		push(c)
		c.Node += tile
		push(c)
	}
	return ops
}

var sinkItem Item

// BenchmarkQueueDrain replays drain-shaped scripts: run holds about as many
// entries as a chip:32,2 analysis does at its peak, edit about as many as
// one edit generation's re-drain.
func BenchmarkQueueDrain(b *testing.B) {
	for _, c := range []struct {
		name       string
		live, pops int
	}{{"run", 27000, 400000}, {"edit", 300, 20000}} {
		b.Run(c.name, func(b *testing.B) {
			ops := drainTrace(c.live, c.pops, 1)
			var q Queue
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Reset()
				for j := range ops {
					if ops[j].pop {
						sinkItem = q.Pop()
					} else {
						q.Push(ops[j].it)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(ops)), "ns/queue-op")
		})
	}
}

// The worker pool: fan-out for independent analyses. One timing run is
// inherently sequential (a priority event loop), but a verification
// session rarely performs just one — accuracy sweeps run every circuit
// under every model, critical-path comparisons run every block per model,
// clocked analyses run one verifier per phase. RunMany spreads such
// independent units over the machine's cores; each unit remains the
// serial, deterministic analysis, so results are bit-identical at every
// GOMAXPROCS.
package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// RunMany executes fn(0..n-1) over min(GOMAXPROCS, n) goroutines, the
// calling one among them, and returns the error from the lowest-indexed
// job that failed, if any. Jobs are handed out in index order, every job
// handed out runs, and no goroutine takes another after a failure: the
// jobs below a failed one were all handed out before it, so the error is
// the one a run of every job would return. Jobs must be independent; fn
// writing only to its own index of a pre-sized results slice needs no
// locking.
func RunMany(n int, fn func(i int) error) error {
	var (
		next     atomic.Int64
		failed   atomic.Bool
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		firstIdx int
	)
	work := func() {
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := fn(i); err != nil {
				mu.Lock()
				if firstErr == nil || i < firstIdx {
					firstErr, firstIdx = err, i
				}
				mu.Unlock()
				failed.Store(true)
			}
		}
	}
	for range min(runtime.GOMAXPROCS(0), n) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return firstErr
}

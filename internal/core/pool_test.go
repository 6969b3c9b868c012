package core

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

// withProcs runs f at each GOMAXPROCS setting, restoring the old value.
func withProcs(t *testing.T, procs []int, f func(procs int)) {
	t.Helper()
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		f(p)
	}
}

func TestRunManyCoversAllIndices(t *testing.T) {
	withProcs(t, []int{1, 2, 8}, func(procs int) {
		const n = 100
		var hits [n]atomic.Int32
		err := RunMany(n, func(i int) error {
			hits[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		for i := range hits {
			if c := hits[i].Load(); c != 1 {
				t.Fatalf("GOMAXPROCS=%d: index %d run %d times", procs, i, c)
			}
		}
	})
}

func TestRunManyReturnsLowestError(t *testing.T) {
	errLow, errHigh := errors.New("low"), errors.New("high")
	withProcs(t, []int{1, 4}, func(procs int) {
		var ran [10]atomic.Bool
		err := RunMany(10, func(i int) error {
			ran[i].Store(true)
			switch i {
			case 3:
				return errLow
			case 7:
				return errHigh
			}
			return nil
		})
		// One goroutine stops at the first failure; several report the
		// lowest-indexed one. Both land on index 3.
		if err != errLow {
			t.Errorf("GOMAXPROCS=%d: err = %v, want %v", procs, err, errLow)
		}
		for i := 0; i <= 3; i++ {
			if !ran[i].Load() {
				t.Errorf("GOMAXPROCS=%d: index %d below the failure never ran", procs, i)
			}
		}
		if procs == 1 && ran[4].Load() {
			t.Errorf("GOMAXPROCS=1: index 4 ran after the failure at 3")
		}
	})
}

func TestRunManyEmpty(t *testing.T) {
	if err := RunMany(0, func(int) error { t.Error("called"); return nil }); err != nil {
		t.Fatal(err)
	}
}

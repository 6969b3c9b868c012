package main

import (
	"fmt"
	"math"

	"repro/internal/charlib"
	"repro/internal/experiments"
	"repro/internal/tech"
)

// accuracy is the mean absolute error of each delay model against the analog
// reference over the E2 suite, in percent.
type accuracy struct{ lumped, rc, slope float64 }

// slopeErrLimit is the paper's accuracy band for the slope model. A perf
// change that pushes the slope model past it, or that breaks the ordering
// lumped ≥ rc ≥ slope, has traded accuracy for speed and fails the run.
const slopeErrLimit = 15.0

// measureAccuracy runs experiments.E2ModelAccuracy with characterized tables.
func measureAccuracy() (accuracy, error) {
	p := tech.NMOS4()
	tb, err := charlib.Default(p)
	if err != nil {
		return accuracy{}, fmt.Errorf("characterization: %w", err)
	}
	rows, err := experiments.E2ModelAccuracy(p, tb)
	if err != nil {
		return accuracy{}, err
	}
	mean := func(model string) float64 {
		s := 0.0
		for i := range rows {
			s += math.Abs(rows[i].Err(model))
		}
		return s / float64(len(rows))
	}
	return accuracy{mean("lumped"), mean("rc"), mean("slope")}, nil
}

// gate returns an error when the accuracy is outside what the paper claims.
func (a accuracy) gate() error {
	switch {
	case a.slope > slopeErrLimit:
		return fmt.Errorf("slope model error %.2f%% exceeds %.0f%%", a.slope, slopeErrLimit)
	case !(a.lumped >= a.rc && a.rc >= a.slope):
		return fmt.Errorf("model error ordering broken: lumped %.2f%%, rc %.2f%%, slope %.2f%%", a.lumped, a.rc, a.slope)
	}
	return nil
}

func (a accuracy) String() string {
	return fmt.Sprintf("delay.slope_err_pct %.2f  delay.rc_err_pct %.2f  delay.lumped_err_pct %.2f (vs analog, E2 suite)", a.slope, a.rc, a.lumped)
}

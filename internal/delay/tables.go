// Package delay implements the paper's contribution: three switch-level
// delay models of increasing fidelity — Lumped RC, distributed RC (Elmore
// on the stage's RC tree), and the Slope model, in which the effective
// resistance of the switching transistor is a function of the ratio of the
// input transition time to the stage's intrinsic RC delay.
//
// All three models consume the same Stage structure and the same Tables of
// effective resistances, so their accuracy differences (experiments E2–E5)
// come purely from the modelling, not the inputs.
package delay

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/tech"
)

// Curve is an empirical slope-model curve: sampled multipliers as a
// function of the slope ratio r = Tin / τstep, where Tin is the input's
// 10–90% transition time and τstep the stage's step-input delay.
type Curve struct {
	// Ratio holds ascending sample points, the first of which must be 0
	// (step input).
	Ratio []float64
	// RMult[i] is the effective-resistance multiplier at Ratio[i];
	// RMult[0] is 1 by construction.
	RMult []float64
	// TFactor[i] is the output 10–90% transition time divided by τstep
	// at Ratio[i].
	TFactor []float64
}

// segment returns the smallest i with c.Ratio[i] >= r, len(c.Ratio) when
// there is none — sort.SearchFloat64s's answer, found by a forward scan:
// a curve has 8–12 break points, and a closure-driven binary search over
// them was 13 % of a chip-scale drain.
func (c *Curve) segment(r float64) int {
	i := 0
	for i < len(c.Ratio) && !(c.Ratio[i] >= r) {
		i++
	}
	return i
}

// At returns the effective-resistance multiplier and the output-transition
// factor at slope ratio r — the slope model's innermost lookup, locating the
// interpolation segment once for both curves. Between samples it
// interpolates linearly; beyond the last it extrapolates the final segment
// (slope effects grow roughly linearly in the deep-slow-input regime), and
// below the first it clamps. An empty curve reads as the identity
// multiplier. Both results are floored at small positive values so stage
// delays and slopes stay positive.
func (c *Curve) At(r float64) (mult, tfactor float64) {
	n := len(c.Ratio)
	if n == 0 {
		return flooredMult(1), flooredTFactor(1)
	}
	if r <= c.Ratio[0] {
		return flooredMult(c.RMult[0]), flooredTFactor(c.TFactor[0])
	}
	i := c.segment(r)
	if i >= n {
		if n == 1 {
			return flooredMult(c.RMult[0]), flooredTFactor(c.TFactor[0])
		}
		i = n - 1
	}
	x0, x1 := c.Ratio[i-1], c.Ratio[i]
	if x1 == x0 {
		return flooredMult(c.RMult[i]), flooredTFactor(c.TFactor[i])
	}
	m0, m1 := c.RMult[i-1], c.RMult[i]
	f0, f1 := c.TFactor[i-1], c.TFactor[i]
	mult = flooredMult(m0 + (m1-m0)*(r-x0)/(x1-x0))
	tfactor = flooredTFactor(f0 + (f1-f0)*(r-x0)/(x1-x0))
	return mult, tfactor
}

func flooredMult(m float64) float64 {
	if m < 0.05 {
		m = 0.05
	}
	return m
}

func flooredTFactor(f float64) float64 {
	if f < 0.1 {
		f = 0.1
	}
	return f
}

// Validate checks consistent lengths, ascending ratios, and multipliers
// and transition factors that never decrease with ratio: a slower input
// must never make a stage faster or its output sharper.
func (c *Curve) Validate() error {
	if len(c.Ratio) == 0 {
		return fmt.Errorf("delay: empty curve")
	}
	if len(c.RMult) != len(c.Ratio) || len(c.TFactor) != len(c.Ratio) {
		return fmt.Errorf("delay: curve length mismatch (%d ratios, %d rmult, %d tfactor)",
			len(c.Ratio), len(c.RMult), len(c.TFactor))
	}
	if c.Ratio[0] != 0 {
		return fmt.Errorf("delay: curve must start at ratio 0, got %g", c.Ratio[0])
	}
	for i := 1; i < len(c.Ratio); i++ {
		if c.Ratio[i] <= c.Ratio[i-1] {
			return fmt.Errorf("delay: curve ratios not ascending at %d", i)
		}
	}
	for i, m := range c.RMult {
		if math.IsNaN(m) || m <= 0 {
			return fmt.Errorf("delay: non-positive RMult[%d] = %g", i, m)
		}
	}
	for i := 1; i < len(c.Ratio); i++ {
		if !(c.RMult[i] >= c.RMult[i-1]) || !(c.TFactor[i] >= c.TFactor[i-1]) {
			return fmt.Errorf("delay: curve decreases at ratio %g", c.Ratio[i])
		}
	}
	return nil
}

// Tables packages the per-technology data the delay models need: the
// effective resistance of each device type for each output transition, and
// the slope-model curves. Tables come from two sources — the analytic
// defaults below, or measured characterization against the analog
// reference (package charlib), mirroring the paper's SPICE calibration.
type Tables struct {
	// Source records provenance for reports: "analytic" or "characterized".
	Source string
	// Tech names the parameter set the tables describe.
	Tech string
	// RSquare[d][tr] is the step-input effective resistance in
	// ohm-squares of device d driving transition tr, defined such that
	// a single-stage delay is exactly R·C (50% crossing).
	RSquare [4][2]float64
	// Curves[d][tr] is the slope curve for device d driving transition tr.
	Curves [4][2]Curve

	// keyOnce computes contentKey, the cached key(), on first use: a model
	// and its tables may serve several goroutines.
	keyOnce    sync.Once
	contentKey uint64
}

// key fingerprints the numbers in the tables (FNV-1a over RSquare and every
// curve sample), so per-stage constants computed under one Tables value
// serve every other with the same contents. It is taken on the first
// evaluation: tables must not be modified once a model has used them.
func (tb *Tables) key() uint64 {
	tb.keyOnce.Do(tb.fingerprint)
	return tb.contentKey
}

func (tb *Tables) fingerprint() {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ (v & 0xff)) * 1099511628211
			v >>= 8
		}
	}
	floats := func(xs []float64) {
		mix(uint64(len(xs)))
		for _, x := range xs {
			mix(math.Float64bits(x))
		}
	}
	for d := range tb.RSquare {
		floats(tb.RSquare[d][:])
		for tr := range tb.Curves[d] {
			c := &tb.Curves[d][tr]
			floats(c.Ratio)
			floats(c.RMult)
			floats(c.TFactor)
		}
	}
	if h == 0 {
		h++ // 0 is the stage record's "empty"
	}
	tb.contentKey = h
}

// R returns the step-input effective resistance in ohms of a device of
// type d, geometry w×l, driving transition tr.
func (tb *Tables) R(d tech.Device, tr tech.Transition, w, l float64) float64 {
	return tb.RSquare[d][tr] * l / w
}

// Curve returns the slope curve for device d driving transition tr.
func (tb *Tables) Curve(d tech.Device, tr tech.Transition) *Curve {
	return &tb.Curves[d][tr]
}

// Validate checks every populated entry.
func (tb *Tables) Validate() error {
	for _, d := range tech.Devices() {
		for _, tr := range []tech.Transition{tech.Rise, tech.Fall} {
			if tb.RSquare[d][tr] < 0 {
				return fmt.Errorf("delay: negative RSquare[%s][%s]", d, tr)
			}
			if tb.RSquare[d][tr] == 0 {
				continue // device/transition not available in this tech
			}
			if err := tb.Curves[d][tr].Validate(); err != nil {
				return fmt.Errorf("curve [%s][%s]: %w", d, tr, err)
			}
		}
	}
	return nil
}

// AnalyticTables builds tables from the technology's rule-of-thumb
// resistances and a crude analytic slope shape: the effective resistance
// multiplier grows linearly with the slope ratio at about one third, and
// the output transition factor starts at the single-pole 10–90% value
// (ln 9 ≈ 2.2) and widens with slow inputs. They are the closed-form
// fixture of the benchmark and most goldens, the -tables analytic choice,
// and the "uncalibrated" arm of ablation experiment E1.
func AnalyticTables(p *tech.Params) *Tables {
	tb := &Tables{Source: "analytic", Tech: p.Name}
	ratios := []float64{0, 0.5, 1, 2, 4, 8, 16, 32}
	for _, d := range tech.Devices() {
		for _, tr := range []tech.Transition{tech.Rise, tech.Fall} {
			rsq := p.RSquare(d, tr)
			tb.RSquare[d][tr] = rsq
			if rsq == 0 {
				continue
			}
			c := Curve{Ratio: ratios}
			for _, r := range ratios {
				c.RMult = append(c.RMult, 1+r/3)
				c.TFactor = append(c.TFactor, math.Log(9)+0.5*r)
			}
			tb.Curves[d][tr] = c
		}
	}
	return tb
}

// Waveform measurement: threshold crossings, transition times, and delay
// between waveforms — the quantities the paper's evaluation compares
// between SPICE and the switch-level models.
package analog

import "fmt"

// ErrNoCrossing is wrapped by measurement errors when a waveform never
// crosses the requested level in the requested direction.
var ErrNoCrossing = fmt.Errorf("analog: waveform does not cross level")

// Crossing returns the first time at or after tmin at which the recorded
// waveform of node crosses `level` in the given direction (rising:
// from below to at-or-above; falling: from above to at-or-below), using
// linear interpolation between samples.
func (r *Result) Crossing(node int, level float64, rising bool, tmin float64) (float64, error) {
	v, ok := r.V[node]
	if !ok {
		return 0, fmt.Errorf("analog: node %d (%s) was not recorded", node, r.circ.names[node])
	}
	for i := 1; i < len(v); i++ {
		if r.Times[i] < tmin {
			continue
		}
		a, b := v[i-1], v[i]
		var hit bool
		if rising {
			hit = a < level && b >= level
		} else {
			hit = a > level && b <= level
		}
		if hit {
			// Linear interpolation inside the interval.
			f := 0.0
			if b != a {
				f = (level - a) / (b - a)
			}
			return r.Times[i-1] + f*(r.Times[i]-r.Times[i-1]), nil
		}
	}
	dir := "rising"
	if !rising {
		dir = "falling"
	}
	return 0, fmt.Errorf("%w %g %s on node %s after t=%g",
		ErrNoCrossing, level, dir, r.circ.names[node], tmin)
}

// TransitionTime returns the 10%–90% transition time of node's first
// transition after tmin between levels v0 and v1 (v0 may exceed v1 for a
// falling transition).
func (r *Result) TransitionTime(node int, v0, v1, tmin float64) (float64, error) {
	rising := v1 > v0
	lo := v0 + 0.1*(v1-v0)
	hi := v0 + 0.9*(v1-v0)
	t10, err := r.Crossing(node, lo, rising, tmin)
	if err != nil {
		return 0, err
	}
	t90, err := r.Crossing(node, hi, rising, t10)
	if err != nil {
		return 0, err
	}
	return t90 - t10, nil
}

// Delay50 returns the delay from the 50% crossing of `from` (direction
// fromRising) to the subsequent 50% crossing of `to` (direction toRising),
// with both 50% levels computed against swing v0→v1 of the supply.
func (r *Result) Delay50(from, to int, fromRising, toRising bool, v0, v1, tmin float64) (float64, error) {
	mid := (v0 + v1) / 2
	t0, err := r.Crossing(from, mid, fromRising, tmin)
	if err != nil {
		return 0, fmt.Errorf("measuring input: %w", err)
	}
	t1, err := r.Crossing(to, mid, toRising, t0)
	if err != nil {
		return 0, fmt.Errorf("measuring output: %w", err)
	}
	return t1 - t0, nil
}

// Final returns the last recorded voltage of node.
func (r *Result) Final(node int) (float64, error) {
	v, ok := r.V[node]
	if !ok || len(v) == 0 {
		return 0, fmt.Errorf("analog: node %d has no samples", node)
	}
	return v[len(v)-1], nil
}

// At returns the voltage of node at time t by linear interpolation.
func (r *Result) At(node int, t float64) (float64, error) {
	v, ok := r.V[node]
	if !ok {
		return 0, fmt.Errorf("analog: node %d was not recorded", node)
	}
	if len(v) == 0 {
		return 0, fmt.Errorf("analog: node %d has no samples", node)
	}
	if t <= r.Times[0] {
		return v[0], nil
	}
	for i := 1; i < len(v); i++ {
		if r.Times[i] >= t {
			span := r.Times[i] - r.Times[i-1]
			if span <= 0 {
				return v[i], nil
			}
			f := (t - r.Times[i-1]) / span
			return v[i-1] + f*(v[i]-v[i-1]), nil
		}
	}
	return v[len(v)-1], nil
}

package delay_test

import (
	"math"
	"sort"
	"testing"

	"repro/internal/charlib"
	"repro/internal/delay"
	"repro/internal/tech"
)

// TestSegmentMatchesBinarySearch pins the curve lookup's forward scan to the
// binary search it replaced: the same segment index at every break point,
// its floating-point neighbours, every midpoint, beyond both ends and at the
// values no comparison orders — for the analytic tables and for measured
// ones, whose break points are not round numbers.
func TestSegmentMatchesBinarySearch(t *testing.T) {
	for _, p := range []*tech.Params{tech.NMOS4(), tech.CMOS3()} {
		measured, err := charlib.Default(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for _, tb := range []*delay.Tables{delay.AnalyticTables(p), measured} {
			probed := 0
			for d := range tb.Curves {
				for tr := range tb.Curves[d] {
					c := &tb.Curves[d][tr]
					probes := []float64{math.Inf(-1), -1, math.Copysign(0, -1), math.Inf(1), math.NaN()}
					for i, x := range c.Ratio {
						probes = append(probes, x, math.Nextafter(x, math.Inf(-1)), math.Nextafter(x, math.Inf(1)))
						if i > 0 {
							probes = append(probes, (c.Ratio[i-1]+x)/2)
						}
						if i == len(c.Ratio)-1 {
							probes = append(probes, 2*x+1)
						}
					}
					for _, r := range probes {
						if got, want := c.Segment(r), sort.SearchFloat64s(c.Ratio, r); got != want {
							t.Errorf("%s %s curve[%d][%d]: segment(%v) = %d, binary search says %d",
								tb.Tech, tb.Source, d, tr, r, got, want)
						}
						probed++
					}
				}
			}
			if probed < 100 {
				t.Errorf("%s %s: only %d probes; are the curves empty?", tb.Tech, tb.Source, probed)
			}
		}
	}
}

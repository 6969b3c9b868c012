// Waveform export: a terminal sparkline for quick inspection of
// characterization fixtures.
package analog

import (
	"fmt"
	"math"
	"strings"
)

// sparkRunes are the eight-level block characters used by Plot.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Plot renders one node's waveform as a fixed-width terminal sparkline
// between vmin and vmax, for quick looks at fixture behaviour.
func (r *Result) Plot(node, width int, vmin, vmax float64) (string, error) {
	v, ok := r.V[node]
	if !ok {
		return "", fmt.Errorf("analog: node %d was not recorded", node)
	}
	if width <= 0 {
		width = 60
	}
	if vmax <= vmin {
		return "", fmt.Errorf("analog: bad plot range [%g, %g]", vmin, vmax)
	}
	var b strings.Builder
	for i := 0; i < width; i++ {
		// Sample the waveform uniformly in time.
		f := float64(i) / float64(width-1)
		idx := int(f * float64(len(v)-1))
		x := (v[idx] - vmin) / (vmax - vmin)
		x = math.Max(0, math.Min(1, x))
		level := int(x * float64(len(sparkRunes)-1))
		b.WriteRune(sparkRunes[level])
	}
	return b.String(), nil
}

// Per-stage evaluation constants: everything the three models derive from
// a stage other than the input slope is a constant of the (stage, tables)
// pair — effective resistances, capacitance sums, the intrinsic Elmore
// delay and its split-walk replay terms. An enumerated stage is immutable,
// so these are computed once (on first evaluation) into the stage record
// itself, turning the models' per-evaluation path walk into a handful of
// multiply-adds over the record the drain is already reading. This is the
// single hottest saving of the chip-scale analysis: the same stage is
// re-evaluated every time longest-path relaxation revisits its trigger.
//
// The record keeps one set of constants, published under the content key
// of the tables that computed them (Tables.key): analyses whose tables are
// equal share them whichever *Tables they hold, and an analysis under
// different tables evaluates that stage by the uncached walk.
//
// Bit-exactness: the constants are the exact intermediate values the
// uncached walks produce (computed by the same code, in the same order),
// and the replay performs the exact arithmetic the uncached evaluators
// perform on them, so cached and uncached evaluation agree bit for bit.
package delay

import (
	"math"

	"repro/internal/netlist"
	"repro/internal/stage"
)

// constsFor returns the stage's constants for tb, computing and publishing
// them on first use. Returns nil when the record holds (or is being given)
// another table set's constants.
func constsFor(tb *Tables, nw *netlist.Network, st *stage.Stage) *stage.Consts {
	key := tb.key()
	if c := st.Consts(key); c != nil {
		return c
	}
	c := st.ClaimConsts()
	if c == nil {
		return nil
	}
	rc := RC{T: tb}
	c.Lumped = seriesR(tb, nw, st) * st.TotalC()
	c.TF0 = tf0(tb, st)
	if st.Fused() {
		c.TauStep, c.High, c.RDrv, c.AccDrv = rc.elmoreSplit(nw, st, st.Driver(), st.Low())
	} else {
		c.TauStep = rc.elmoreAt(nw, st, -1, 1)
	}
	st.PublishConsts(key)
	return c
}

// slopeResult replays the slope model from the constants, or reports
// ok=false when the stage needs the uncached two-walk path (deep driver
// position).
func slopeResult(tb *Tables, st *stage.Stage, c *stage.Consts, inSlope float64) (Result, bool) {
	if c.TauStep <= 0 {
		return Result{Delay: c.TauStep, Slope: math.Log(9) * c.TauStep}, true
	}
	if !st.Fused() {
		return Result{}, false
	}
	ratio := 0.0
	if inSlope > 0 {
		ratio = inSlope / c.TauStep
	}
	mult, tfactor := tb.Curve(st.DriverType(), st.Transition()).At(ratio)
	d := c.High + (c.RDrv*mult)*c.AccDrv
	low := st.Low()
	for j := len(low) - 1; j >= 0; j-- {
		d += low[j]
	}
	return Result{Delay: d, Slope: tfactor * c.TauStep}, true
}

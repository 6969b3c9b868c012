// Per-stage evaluation constants: everything the three models derive from
// a stage other than the input slope is a constant of the (stage, tables)
// pair — effective resistances, capacitance sums, the intrinsic Elmore
// delay and its split-walk replay terms. An enumerated stage is immutable,
// so these are computed once per table set (on first evaluation) into the
// stage record itself, turning the models' per-evaluation path walk into a
// handful of multiply-adds over the record the drain is already reading. This is the
// single hottest saving of the chip-scale analysis: the same stage is
// re-evaluated every time longest-path relaxation revisits its trigger.
//
// The record keeps one set of constants, filed under the content key of
// the tables that computed them (Tables.key): analyses whose tables are
// equal share them whichever *Tables they hold, and an evaluation under
// different tables recomputes them in place. Writing them is a plain store
// into the record, which is why a stage database belongs to one analysis
// at a time (see stage.DB). Recomputation is the same code in the same
// order, so a re-keyed record evaluates bit for bit like a fresh one.
package delay

import (
	"repro/internal/netlist"
	"repro/internal/stage"
)

// constsFor returns the stage's constants for tb, computing them when the
// record holds none or another table set's.
func constsFor(tb *Tables, nw *netlist.Network, st *stage.Stage) *stage.Consts {
	c, ok := st.Consts(tb.key())
	if !ok {
		c.Lumped = seriesR(tb, nw, st) * st.TotalC()
		c.TauStep, c.High, c.RDrv, c.AccDrv = elmoreSplit(tb, nw, st, st.Driver(), st.Low())
	}
	return c
}

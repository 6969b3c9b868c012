// Experiments E6 (verifier throughput/capacity) and E7 (critical paths of
// datapath blocks under each model).
package experiments

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/stage"
	"repro/internal/switchsim"
	"repro/internal/tech"
)

// Block is a named generated circuit for the scaling experiments.
type Block struct {
	Name string
	Net  *netlist.Network
	// Dir pins control inputs that do not toggle in the analyzed scenario
	// (e.g. unaccessed register-file word lines) and cuts the fanout of
	// latch internals: the directives a Crystal user would give. Every
	// other input rises and falls.
	Dir core.Directives
}

// StandardBlocks generates the E6/E7 circuit set for technology p. Sizes
// span two orders of magnitude in transistor count.
func StandardBlocks(p *tech.Params) ([]Block, error) {
	type g struct {
		name  string
		build func() (*netlist.Network, error)
	}
	gens := []g{
		{"alu-4", func() (*netlist.Network, error) { return gen.ALU(p, 4) }},
		{"alu-8", func() (*netlist.Network, error) { return gen.ALU(p, 8) }},
		{"alu-16", func() (*netlist.Network, error) { return gen.ALU(p, 16) }},
		{"barrel-8", func() (*netlist.Network, error) { return gen.BarrelShifter(p, 8) }},
		{"barrel-16", func() (*netlist.Network, error) { return gen.BarrelShifter(p, 16) }},
		{"decoder-5", func() (*netlist.Network, error) { return gen.Decoder(p, 5) }},
		{"manchester-8", func() (*netlist.Network, error) { return gen.ManchesterAdder(p, 8) }},
		{"ripple-16", func() (*netlist.Network, error) { return gen.RippleAdder(p, 16) }},
		{"pla-8x24x8", func() (*netlist.Network, error) { return gen.PLA(p, 8, 24, 8, 7) }},
		{"regfile-16x8", func() (*netlist.Network, error) { return gen.RegisterFile(p, 16, 8) }},
		{"carrysel-16", func() (*netlist.Network, error) { return gen.CarrySelectAdder(p, 16, 4) }},
		{"arraymul-8", func() (*netlist.Network, error) { return gen.ArrayMultiplier(p, 8) }},
		{"datapath-8", func() (*netlist.Network, error) { return gen.Datapath(p, 8) }},
	}
	var out []Block
	for _, gg := range gens {
		nw, err := gg.build()
		if err == nil {
			nw.Name = gg.name
			err = nw.Check()
		}
		if err != nil {
			return nil, fmt.Errorf("block %s: %w", gg.name, err)
		}
		b := Block{Name: gg.name, Net: nw}
		switch gg.name {
		case "regfile-16x8":
			// Only one word line toggles per access; analyzing all
			// sixteen toggling at once channel-connects every cell to
			// the bit lines and the analysis degenerates (the same
			// directive a Crystal user would supply).
			b.Dir.Fix = map[string]switchsim.Value{}
			for w := 1; w < 16; w++ {
				b.Dir.Fix[fmt.Sprintf("w%d", w)] = switchsim.V0
			}
			for w := 0; w < 16; w++ {
				for bit := 0; bit < 8; bit++ {
					b.Dir.LoopBreak = append(b.Dir.LoopBreak, fmt.Sprintf("qb_%d_%d", w, bit))
				}
			}
		case "datapath-8":
			// Same discipline for the embedded register file: pin the
			// upper address bits so at most two words are live, and
			// break the storage-cell feedback loops (a Crystal user's
			// standard latch directive).
			b.Dir.Fix = map[string]switchsim.Value{
				"addr1": switchsim.V0,
				"addr2": switchsim.V0,
			}
			for wl := 0; wl < 8; wl++ {
				for bit := 0; bit < 8; bit++ {
					b.Dir.LoopBreak = append(b.Dir.LoopBreak, fmt.Sprintf("rf_qb_%d_%d", wl, bit))
				}
			}
		}
		out = append(out, b)
	}
	return out, nil
}

// ThroughputRow is one line of the E6 capacity table.
type ThroughputRow struct {
	Block      string
	Trans      int
	Nodes      int
	Stages     int           // stage/model evaluations of one analysis
	Wall       time.Duration // median wall time of e6Runs analyses
	CritArr    float64       // worst arrival (s) of one analysis
	TransPerSc float64       // transistors per second of wall time
}

// e6Runs is how many timed analyses of each block an E6 row's wall time is
// the median of.
const e6Runs = 5

// analyzeBlock runs the verifier over a block with every non-fixed input
// toggling. db optionally seeds the stage database from a previous run of
// the same block (a different model, same sensitization); the analyzer's
// database is reachable from the returned analyzer for further chaining.
func analyzeBlock(b Block, m delay.Model, db *stage.DB) (*core.Analyzer, time.Duration, error) {
	if len(b.Net.Inputs()) == 0 {
		return nil, 0, fmt.Errorf("block %s has no inputs", b.Name)
	}
	a, err := b.Dir.New(b.Net, m, core.Options{DB: db})
	if err != nil {
		return nil, 0, fmt.Errorf("block %s: %w", b.Name, err)
	}
	start := time.Now()
	if err := a.Run(); err != nil {
		return nil, 0, err
	}
	return a, time.Since(start), nil
}

// E6Throughput measures verifier wall time and stage-evaluation counts
// over the standard blocks under the given model. Each block is analyzed
// once untimed, for its stage count and critical arrival and to warm up,
// then e6Runs times from scratch; the row's wall time is their median, so
// a collection cycle that lands in one run does not read as the block's
// speed.
func E6Throughput(p *tech.Params, tb *delay.Tables, model string) ([]ThroughputRow, error) {
	m, err := delay.ByName(model, tb)
	if err != nil {
		return nil, err
	}
	blocks, err := StandardBlocks(p)
	if err != nil {
		return nil, err
	}
	// One block at a time: each row reports its block's own wall time,
	// which a neighbour analyzed alongside it would inflate.
	rows := make([]ThroughputRow, len(blocks))
	for i, b := range blocks {
		st := b.Net.Stats()
		a, _, err := analyzeBlock(b, m, nil)
		if err != nil {
			return nil, fmt.Errorf("block %s: %w", b.Name, err)
		}
		walls := make([]time.Duration, e6Runs)
		for k := range walls {
			if _, walls[k], err = analyzeBlock(b, m, nil); err != nil {
				return nil, fmt.Errorf("block %s: %w", b.Name, err)
			}
		}
		slices.Sort(walls)
		wall := walls[e6Runs/2]
		ev, _ := a.MaxArrival()
		rows[i] = ThroughputRow{
			Block:   b.Name,
			Trans:   st.Trans,
			Nodes:   st.Nodes,
			Stages:  a.StagesEvaluated(),
			Wall:    wall,
			CritArr: ev.T,
		}
		if wall > 0 {
			rows[i].TransPerSc = float64(st.Trans) / wall.Seconds()
		}
	}
	return rows, nil
}

// FormatThroughput renders E6 rows.
func FormatThroughput(title string, rows []ThroughputRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%-14s %8s %7s %9s %12s %10s %12s\n",
		title, "block", "trans", "nodes", "stages", "wall", "crit", "trans/s")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %8d %7d %9d %12s %8.1fns %12.0f\n",
			r.Block, r.Trans, r.Nodes, r.Stages, r.Wall.Round(time.Microsecond),
			r.CritArr*1e9, r.TransPerSc)
	}
	return b.String()
}

// CriticalRow is one line of the E7 table: a block's critical path arrival
// under each model.
type CriticalRow struct {
	Block    string
	Trans    int
	Arrival  map[string]float64 // model → worst arrival (s)
	Endpoint map[string]string  // model → endpoint node
}

// E7CriticalPaths analyzes selected blocks under all three models.
func E7CriticalPaths(p *tech.Params, tb *delay.Tables) ([]CriticalRow, error) {
	blocks, err := StandardBlocks(p)
	if err != nil {
		return nil, err
	}
	// The interesting subset: one of each structure class.
	want := map[string]bool{
		"alu-8": true, "barrel-8": true, "decoder-5": true,
		"manchester-8": true, "ripple-16": true,
	}
	var picked []Block
	for _, b := range blocks {
		if want[b.Name] {
			picked = append(picked, b)
		}
	}
	// Fan out over blocks; within a block the three models run in order,
	// chaining one stage database — the sensitization is model-independent,
	// so the enumeration from the first run serves all three.
	rows := make([]CriticalRow, len(picked))
	err = core.RunMany(len(picked), func(i int) error {
		b := picked[i]
		row := CriticalRow{
			Block:    b.Name,
			Trans:    b.Net.Stats().Trans,
			Arrival:  map[string]float64{},
			Endpoint: map[string]string{},
		}
		var db *stage.DB
		for _, m := range delay.All(tb) {
			a, _, err := analyzeBlock(b, m, db)
			if err != nil {
				return fmt.Errorf("block %s model %s: %w", b.Name, m.Name(), err)
			}
			db = a.StageDB()
			ev, path := a.MaxArrival()
			row.Arrival[m.Name()] = ev.T
			if path != nil {
				row.Endpoint[m.Name()] = path.End().Node.Name
			}
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatCritical renders E7 rows.
func FormatCritical(title string, rows []CriticalRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%-14s %8s %12s %12s %12s %14s\n",
		title, "block", "trans", "lumped", "rc", "slope", "endpoint(slope)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %8d %10.1fns %10.1fns %10.1fns %14s\n",
			r.Block, r.Trans,
			r.Arrival["lumped"]*1e9, r.Arrival["rc"]*1e9, r.Arrival["slope"]*1e9,
			r.Endpoint["slope"])
	}
	return b.String()
}

// ALU critical-path analysis: the verifier applied to a realistic datapath
// block, with user directives (fixed function-select controls) the way a
// Crystal user would constrain an analysis run.
//
//	go run ./examples/alu
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/gen"
	"repro/internal/switchsim"
	"repro/internal/tech"
)

func main() {
	p := tech.NMOS4()
	nw, err := gen.ALU(p, 8)
	if err != nil {
		log.Fatal(err)
	}
	st := nw.Stats()
	fmt.Printf("8-bit ALU: %d transistors, %d nodes\n\n", st.Trans, st.Nodes)

	tables := delay.AnalyticTables(p)

	// Scenario 1: ADD selected, operands toggle — the carry chain should
	// dominate. Naming no rise or fall toggles every input not fixed.
	v0, v1 := switchsim.V0, switchsim.V1
	add := core.Directives{Fix: map[string]switchsim.Value{"fadd": v1, "fand": v0, "for": v0, "fxor": v0}, Slope: 1e-9}
	a, err := add.New(nw, delay.NewSlope(tables), core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	if err := a.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("scenario 1: ADD selected, operands toggle")
	if err := a.WriteReport(os.Stdout, 2); err != nil {
		log.Fatal(err)
	}

	// Scenario 2: operands stable, the function select switches from AND
	// to ADD mid-cycle — how long until the result bus settles?
	fmt.Println("\nscenario 2: function select switches (fand falls, fadd rises)")
	sel := core.Directives{Fix: map[string]switchsim.Value{"for": v0, "fxor": v0}, Rise: []string{"fadd"}, Fall: []string{"fand"}, Slope: 1e-9}
	b, err := sel.New(nw, delay.NewSlope(tables), core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	if err := b.Run(); err != nil {
		log.Fatal(err)
	}
	if err := b.WriteReport(os.Stdout, 2); err != nil {
		log.Fatal(err)
	}
}

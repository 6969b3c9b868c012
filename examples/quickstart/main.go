// Quickstart: build a small circuit with the public generator API, run the
// switch-level timing verifier under all three delay models, and print the
// critical path.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/gen"
	"repro/internal/tech"
)

func main() {
	// A 4 µm nMOS process, the technology Crystal was born on.
	p := tech.NMOS4()

	// A five-stage inverter chain, every stage fanning out to two extra
	// gate loads.
	nw, err := gen.InverterChain(p, 5, 2)
	if err != nil {
		log.Fatal(err)
	}
	st := nw.Stats()
	fmt.Printf("circuit %s: %d transistors, %d nodes\n\n", nw.Name, st.Trans, st.Nodes)

	// Time it under each model with the closed-form analytic tables;
	// charlib.Default(p) returns the committed characterized ones.
	tables := delay.AnalyticTables(p)
	// The input rises and falls at t=0 with a 1 ns transition.
	seeds := core.Directives{Rise: []string{"in"}, Fall: []string{"in"}, Slope: 1e-9}
	for _, m := range delay.All(tables) {
		a, err := seeds.New(nw, m, core.Options{})
		if err != nil {
			log.Fatal(err)
		}
		if err := a.Run(); err != nil {
			log.Fatal(err)
		}
		ev, _ := a.MaxArrival()
		fmt.Printf("%-8s model: critical arrival %.2f ns\n", m.Name(), ev.T*1e9)
	}

	// Full report under the slope model.
	fmt.Println()
	a, err := seeds.New(nw, delay.NewSlope(tables), core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	if err := a.Run(); err != nil {
		log.Fatal(err)
	}
	if err := a.WriteReport(os.Stdout, 1); err != nil {
		log.Fatal(err)
	}
}

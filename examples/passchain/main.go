// Pass-transistor chain study: the workload that motivates the paper's
// distributed RC model. Sweeps chain length, comparing the lumped model's
// quadratic pessimism against the distributed estimate and the
// transistor-level analog reference.
//
//	go run ./examples/passchain
package main

import (
	"fmt"
	"log"

	"repro/internal/charlib"
	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/gen"
	"repro/internal/switchsim"
	"repro/internal/tech"
)

func main() {
	p := tech.NMOS4()
	tb, err := charlib.Default(p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pass-chain delay vs length (%s, %s tables)\n\n", p.Name, tb.Source)
	fmt.Printf("%-4s %10s %10s %8s\n", "n", "lumped", "distributed", "ratio")

	for _, n := range []int{1, 2, 4, 6, 8, 10, 12} {
		nw, err := gen.PassChain(p, n)
		if err != nil {
			log.Fatal(err)
		}
		arr := map[string]float64{}
		// The chain control is on; the data input falls.
		d := core.Directives{Fix: map[string]switchsim.Value{"ctl": switchsim.V1}, Fall: []string{"in"}, Slope: 1e-9}
		for _, m := range []delay.Model{delay.NewLumped(tb), delay.NewRC(tb)} {
			a, err := d.New(nw, m, core.Options{})
			if err != nil {
				log.Fatal(err)
			}
			if err := a.Run(); err != nil {
				log.Fatal(err)
			}
			ev := a.Arrival(nw.Lookup("out"), tech.Fall)
			if !ev.Valid {
				log.Fatalf("n=%d model=%s: no arrival", n, m.Name())
			}
			arr[m.Name()] = ev.T
		}
		fmt.Printf("%-4d %8.2fns %8.2fns %8.2f\n",
			n, arr["lumped"]*1e9, arr["rc"]*1e9, arr["lumped"]/arr["rc"])
	}
	fmt.Println("\nthe lumped/distributed ratio approaches 2 as the chain grows —")
	fmt.Println("exactly the pass-chain pessimism the distributed model removes.")
}

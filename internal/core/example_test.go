package core_test

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/gen"
	"repro/internal/tech"
)

// Example runs a complete worst-case analysis of a small adder and prints
// its critical arrival.
func Example() {
	p := tech.NMOS4()
	nw, err := gen.RippleAdder(p, 4)
	if err != nil {
		log.Fatal(err)
	}
	a := core.New(nw, delay.NewSlope(delay.AnalyticTables(p)), core.Options{})
	for _, in := range nw.Inputs() {
		a.SetInputEvent(in, tech.Rise, 0, 1e-9)
		a.SetInputEvent(in, tech.Fall, 0, 1e-9)
	}
	if err := a.Run(); err != nil {
		log.Fatal(err)
	}
	ev, path := a.MaxArrival()
	fmt.Printf("critical endpoint %s after %d hops, arrival %.1f ns\n",
		path.End().Node.Name, len(path.Hops), ev.T*1e9)
	// Output:
	// critical endpoint s3 after 10 hops, arrival 375.4 ns
}

// ExampleAnalyzer_Slacks checks a design against a timing budget.
func ExampleAnalyzer_Slacks() {
	p := tech.NMOS4()
	nw, _ := gen.InverterChain(p, 3, 0)
	a := core.New(nw, delay.NewRC(delay.AnalyticTables(p)), core.Options{})
	a.SetInputEvent(a.Net.Lookup("in"), tech.Rise, 0, 1e-9)
	a.SetInputEvent(a.Net.Lookup("in"), tech.Fall, 0, 1e-9)
	if err := a.Run(); err != nil {
		log.Fatal(err)
	}
	for _, s := range a.Slacks(50e-9) {
		status := "meets"
		if s.Slack < 0 {
			status = "VIOLATES"
		}
		fmt.Printf("%s %s: arrival %.1f ns, %s the 50 ns budget\n",
			s.Node.Name, s.Tr, s.Event.T*1e9, status)
	}
	// Output:
	// out rise: arrival 29.1 ns, meets the 50 ns budget
	// out fall: arrival 16.7 ns, meets the 50 ns budget
}

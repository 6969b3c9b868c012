package main

func Example() {
	main()
	// Output:
	// circuit invchain-5: 30 transistors, 18 nodes
	//
	// lumped   model: critical arrival 56.21 ns
	// rc       model: critical arrival 56.21 ns
	// slope    model: critical arrival 105.07 ns
	//
	// timing report: invchain-5, model slope, 45 stage evaluations
	//
	// path 1: out rise at 105.068ns (slope 51.211ns), 6 hops
	//   in                   fall 0.000ns    (input)
	//   s1                   rise 18.893ns   via Vdd -(d g=s1)-> s1 [rise]
	//   s2                   fall 33.813ns   via GND -(e g=s1)-> s2 [fall]
	//   s3                   rise 60.103ns   via Vdd -(d g=s3)-> s3 [rise]
	//   s4                   fall 78.722ns   via GND -(e g=s3)-> s4 [fall]
	//   out                  rise 105.068ns  via Vdd -(d g=out)-> out [rise]
}

package main

func Example() {
	main()
	// Output:
	// wire: 60 kΩ / 600 fF in 10 sections, nMOS driver
	//
	// lumped   model: wire end falls at  62.14 ns
	// rc       model: wire end falls at  30.05 ns
	// slope    model: wire end falls at  30.11 ns
	//
	// RPH certificate for the final stage alone (step input,
	// excluding the driver's own switching): [20.83, 23.83] ns
	// analog reference: 25.89 ns
	//
	// wire end waveform: ▁▁▂▃▅▅▆▆▇▇▇▇▇▇▇▇▇▇▇▇▇▇▇▇▇▇▇▇▇▇▇▇▇▇▇▇▇▇▇▇▇▄▃▂▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁
	//
	// the lumped estimate overshoots by ~2× on long wires; the
	// distributed estimate tracks the reference — the result that
	// motivated the distributed RC model.
}

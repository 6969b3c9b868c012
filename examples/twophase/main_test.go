package main

func Example() {
	main()
	// Output:
	// 4-stage two-phase shift register: 24 transistors, 21 nodes
	//
	// phase duration 100 ns:
	// phase phi1     duration 100.000ns  worst sr_inv_3 at 39.727ns — ok
	// phase phi2     duration 100.000ns  worst sr_stage_2 at 39.727ns — ok
	//
	// phase duration 40 ns:
	// phase phi1     duration 40.000ns   worst sr_inv_3 at 39.727ns — ok
	// phase phi2     duration 40.000ns   worst sr_stage_2 at 39.727ns — ok
	//
	// phase duration 10 ns:
	// phase phi1     duration 10.000ns   worst sr_inv_3 at 39.727ns — 9 violation(s)
	// phase phi2     duration 10.000ns   worst sr_stage_2 at 39.727ns — 12 violation(s)
	//
	// shortening the phase below the stage delay turns the schedule
	// into violations — the minimum clock period falls out directly.
}

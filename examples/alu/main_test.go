package main

func Example() {
	main()
	// Output:
	// 8-bit ALU: 544 transistors, 355 nodes
	//
	// scenario 1: ADD selected, operands toggle
	// timing report: alu-8, model slope, 3160 stage evaluations
	//
	// path 1: r7 fall at 884.895ns (slope 34.065ns), 20 hops
	//   b0                   rise 0.000ns    (input)
	//   c_19_n1_35           fall 1.721ns    via GND -(e g=b0)-> c_19_n1_35_nd_38 -(e g=a0)-> c_19_n1_35 [fall]
	//   c_19                 rise 56.636ns   via Vdd -(d g=c_19)-> c_19 [rise]
	//   c_59_n2_76           fall 81.736ns   via GND -(e g=c_19)-> c_59_n2_76_nd_79 -(e g=a1)-> c_59_n2_76 [fall]
	//   c_59                 rise 156.445ns  via Vdd -(d g=c_59)-> c_59 [rise]
	//   c_99_n2_116          fall 187.390ns  via GND -(e g=c_59)-> c_99_n2_116_nd_119 -(e g=a2)-> c_99_n2_116 [fall]
	//   c_99                 rise 267.047ns  via Vdd -(d g=c_99)-> c_99 [rise]
	//   c_139_n2_156         fall 299.453ns  via GND -(e g=c_99)-> c_139_n2_156_nd_159 -(e g=a3)-> c_139_n2_156 [fall]
	//   c_139                rise 380.348ns  via Vdd -(d g=c_139)-> c_139 [rise]
	//   c_179_n2_196         fall 413.119ns  via GND -(e g=c_139)-> c_179_n2_196_nd_199 -(e g=a4)-> c_179_n2_196 [fall]
	//   c_179                rise 494.323ns  via Vdd -(d g=c_179)-> c_179 [rise]
	//   c_219_n2_236         fall 527.186ns  via GND -(e g=c_179)-> c_219_n2_236_nd_239 -(e g=a5)-> c_219_n2_236 [fall]
	//   c_219                rise 608.468ns  via Vdd -(d g=c_219)-> c_219 [rise]
	//   c_259_n2_276         fall 641.353ns  via GND -(e g=c_219)-> c_259_n2_276_nd_279 -(e g=a6)-> c_259_n2_276 [fall]
	//   c_259                rise 722.654ns  via Vdd -(d g=c_259)-> c_259 [rise]
	//   sum_288_x_307        fall 755.328ns  via GND -(e g=c_259)-> sum_288_x_307_nd_308 -(e g=sum_288_ab_299)-> sum_288_x_307 [fall]
	//   sum_288_v_310        rise 810.091ns  via Vdd -(d g=sum_288_v_310)-> sum_288_v_310 [rise]
	//   bus_322              fall 827.017ns  via GND -(e g=sum_288_v_310)-> sum_288_nd_313 -(e g=sum_288_u_309)-> sum_288 -(e g=fadd)-> bus_322 [fall]
	//   restore_323          rise 862.522ns  via Vdd -(d g=restore_323)-> restore_323 [rise]
	//   r7                   fall 884.895ns  via GND -(e g=restore_323)-> r7 [fall]
	//
	// path 2: r7 rise at 884.238ns (slope 57.521ns), 19 hops
	//   b0                   rise 0.000ns    (input)
	//   c_19_n1_35           fall 1.721ns    via GND -(e g=b0)-> c_19_n1_35_nd_38 -(e g=a0)-> c_19_n1_35 [fall]
	//   c_19                 rise 56.636ns   via Vdd -(d g=c_19)-> c_19 [rise]
	//   c_59_n2_76           fall 81.736ns   via GND -(e g=c_19)-> c_59_n2_76_nd_79 -(e g=a1)-> c_59_n2_76 [fall]
	//   c_59                 rise 156.445ns  via Vdd -(d g=c_59)-> c_59 [rise]
	//   c_99_n2_116          fall 187.390ns  via GND -(e g=c_59)-> c_99_n2_116_nd_119 -(e g=a2)-> c_99_n2_116 [fall]
	//   c_99                 rise 267.047ns  via Vdd -(d g=c_99)-> c_99 [rise]
	//   c_139_n2_156         fall 299.453ns  via GND -(e g=c_99)-> c_139_n2_156_nd_159 -(e g=a3)-> c_139_n2_156 [fall]
	//   c_139                rise 380.348ns  via Vdd -(d g=c_139)-> c_139 [rise]
	//   c_179_n2_196         fall 413.119ns  via GND -(e g=c_139)-> c_179_n2_196_nd_199 -(e g=a4)-> c_179_n2_196 [fall]
	//   c_179                rise 494.323ns  via Vdd -(d g=c_179)-> c_179 [rise]
	//   c_219_n2_236         fall 527.186ns  via GND -(e g=c_179)-> c_219_n2_236_nd_239 -(e g=a5)-> c_219_n2_236 [fall]
	//   c_219                rise 608.468ns  via Vdd -(d g=c_219)-> c_219 [rise]
	//   c_259_n2_276         fall 641.353ns  via GND -(e g=c_219)-> c_259_n2_276_nd_279 -(e g=a6)-> c_259_n2_276 [fall]
	//   c_259                rise 722.654ns  via Vdd -(d g=c_259)-> c_259 [rise]
	//   sum_288_v_310        fall 745.432ns  via GND -(e g=sum_288_x_307)-> sum_288_v_310_nd_312 -(e g=c_259)-> sum_288_v_310 [fall]
	//   bus_322              rise 809.004ns  via Vdd -(d g=sum_288)-> sum_288 -(e g=fadd)-> bus_322 [rise]
	//   restore_323          fall 851.275ns  via GND -(e g=bus_322)-> restore_323 [fall]
	//   r7                   rise 884.238ns  via Vdd -(d g=r7)-> r7 [rise]
	//
	// scenario 2: function select switches (fand falls, fadd rises)
	// timing report: alu-8, model slope, 131 stage evaluations
	//
	// path 1: r0 rise at 92.554ns (slope 47.299ns), 4 hops
	//   fand                 fall 0.000ns    (input)
	//   bus_43               rise 37.764ns   via Vdd -(d g=sum_8)-> sum_8 -(e g=fadd)-> bus_43 [rise]
	//   restore_44           fall 66.405ns   via GND -(e g=bus_43)-> restore_44 [fall]
	//   r0                   rise 92.554ns   via Vdd -(d g=r0)-> r0 [rise]
	//
	// path 2: r1 rise at 92.554ns (slope 47.299ns), 4 hops
	//   fand                 fall 0.000ns    (input)
	//   bus_83               rise 37.764ns   via Vdd -(d g=sum_48)-> sum_48 -(e g=fadd)-> bus_83 [rise]
	//   restore_84           fall 66.405ns   via GND -(e g=bus_83)-> restore_84 [fall]
	//   r1                   rise 92.554ns   via Vdd -(d g=r1)-> r1 [rise]
}

package main

func Example() {
	main()
	// Output:
	// pass-chain delay vs length (nmos-4u, characterized tables)
	//
	// n        lumped distributed    ratio
	// 1        0.53ns     0.53ns     1.00
	// 2        2.04ns     1.55ns     1.32
	// 4        8.04ns     5.07ns     1.59
	// 6       18.00ns    10.58ns     1.70
	// 8       31.92ns    18.07ns     1.77
	// 10      49.80ns    27.53ns     1.81
	// 12      71.63ns    38.97ns     1.84
	//
	// the lumped/distributed ratio approaches 2 as the chain grows —
	// exactly the pass-chain pessimism the distributed model removes.
}

// Slope-table characterization walkthrough: measures one device's
// effective-resistance curve against the analog reference and prints it
// next to the closed-form analytic tables — the data behind figure E1.
//
//	go run ./examples/charslope
package main

import (
	"fmt"
	"log"

	"repro/internal/charlib"
	"repro/internal/delay"
	"repro/internal/tech"
)

func main() {
	p := tech.NMOS4()
	fmt.Printf("characterizing %s against the analog reference…\n\n", p.Name)
	tb, err := charlib.Characterize(p, charlib.Options{
		Ratios: []float64{0, 0.5, 1, 2, 4, 8, 16, 32},
	})
	if err != nil {
		log.Fatal(err)
	}
	analytic := delay.AnalyticTables(p)

	dev, tr := tech.NEnh, tech.Fall
	fmt.Printf("device %s, output %s\n", dev, tr)
	fmt.Printf("  effective resistance: %.0f Ω/sq characterized, %.0f Ω/sq rule of thumb\n\n",
		tb.RSquare[dev][tr], p.RSquare(dev, tr))
	c := tb.Curve(dev, tr)
	ac := analytic.Curve(dev, tr)
	fmt.Printf("  %-8s %-14s %-14s %-10s\n", "ratio", "Rmult (meas)", "Rmult (anl)", "Tfactor")
	for i, r := range c.Ratio {
		am, _ := ac.At(r)
		fmt.Printf("  %-8.3g %-14.3f %-14.3f %-10.3f\n",
			r, c.RMult[i], am, c.TFactor[i])
	}
	fmt.Println("\nthe measured curve is what the slope model interpolates at analysis")
	fmt.Println("time: effective resistance grows as the input slows relative to the")
	fmt.Println("stage's intrinsic RC delay.")
}

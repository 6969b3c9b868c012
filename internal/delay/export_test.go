package delay

// Segment exposes the curve's break-point lookup to the external tests.
func (c *Curve) Segment(r float64) int { return c.segment(r) }

// Stage remapping: rebuild an enumerated stage over the structurally
// corresponding nodes and devices of another instance. The hierarchical
// analyzer stamps a representative's timing onto its class members and
// keeps provenance pointers into the representative's stages; when a
// member's path is traced, the stage is translated through the instance
// correspondence so the reported path names the member's own nets.
package stage

// Remap returns a copy of the stage with every node index passed through
// nodeFn and every transistor index through transFn. Both functions must
// return their argument unchanged for indexes outside the remapped region
// (rails, shared boundary nodes). Derived loading (PathCap, side R/C,
// driver) is copied, not recomputed: the caller guarantees the image is
// structurally identical, which is exactly the condition under which the
// derived values are equal. The path bloom and cached source-input index
// are recomputed because they encode indexes, and the delay constants
// start unpublished.
func (s *Stage) Remap(nodeFn, transFn func(int32) int32) *Stage {
	out := &Stage{
		Source:     nodeFn(s.Source),
		Target:     nodeFn(s.Target),
		Trigger:    NoTrans,
		Transition: s.Transition,
		driver:     s.driver,
		driverType: s.driverType,
		PathCap:    s.PathCap, // immutable, index-aligned with Path either way
		low:        make([]float64, len(s.low)),
	}
	if s.Trigger != NoTrans {
		out.Trigger = transFn(s.Trigger)
	}
	out.Path = make([]Element, len(s.Path))
	for i, e := range s.Path {
		t := transFn(e.Trans)
		out.Path[i] = Element{Trans: t, From: nodeFn(e.From), To: nodeFn(e.To)}
		out.pathBloom |= 1 << (uint(t) & 63)
	}
	if len(s.Side) > 0 {
		out.Side = make([]SideLoad, len(s.Side))
		for i, sl := range s.Side {
			out.Side[i] = SideLoad{Node: nodeFn(sl.Node), Attach: sl.Attach, R: sl.R, C: sl.C}
		}
	}
	if s.srcInput > 0 {
		out.srcInput = out.Source + 1
	}
	return out
}

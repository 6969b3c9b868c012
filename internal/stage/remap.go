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
	sl := &Slab{
		Stages: make([]Stage, 1),
		path:   make([]Element, s.nPath),
		side:   make([]SideLoad, s.nSide),
		f:      make([]float64, int(s.nPath)+len(s.Low())),
	}
	out := &sl.Stages[0]
	out.slab = sl
	out.Source, out.Target, out.Trigger = nodeFn(s.Source), nodeFn(s.Target), NoTrans
	out.nPath, out.nSide = s.nPath, s.nSide
	out.driver, out.driverType, out.transition = s.driver, s.driverType, s.transition
	if s.Trigger != NoTrans {
		out.Trigger = transFn(s.Trigger)
	}
	for i, e := range s.Path() {
		t := transFn(e.Trans)
		sl.path[i] = Element{Trans: t, From: nodeFn(e.From), To: nodeFn(e.To)}
		out.pathBloom |= 1 << (uint(t) & 63)
	}
	for i, l := range s.Side() {
		sl.side[i] = SideLoad{Node: nodeFn(l.Node), Attach: l.Attach, R: l.R, C: l.C}
	}
	copy(sl.f, s.PathCap())
	if s.srcInput > 0 {
		out.srcInput = out.Source + 1
	}
	return out
}

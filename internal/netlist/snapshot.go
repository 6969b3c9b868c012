// Binary network snapshots (.simx): the warm-start half of the ingest
// pipeline. Parsing a chip-scale .sim file costs tokenizing, symbol
// interning and graph construction; a snapshot is the finished graph in
// a fixed layout of 8-byte-aligned little-endian sections, so a load is
// one file read, header/CRC validation and one fused pass that reads
// each field straight from the section bytes. The decoded network owns
// its memory — node names are substrings of one copy of the name
// section — so the image is garbage once the decode returns.
// Snapshots are a cache, never a source of truth: every snapshot
// records the SHA-256 of the text it was built from plus the technology
// name, and a mismatch or any decode failure means "re-parse the
// source" (LoadCached is that protocol). There is one format — the
// version word is 2; version 1, a compact uvarint stream, is no longer
// read and an old file is an ordinary cache miss — and one decoder,
// decodeSnapshot, fed by ReadSnapshot (bytes read from a stream) and
// LoadCached (a whole file read into the heap).
//
// Layout (all integers little-endian; CRCs are CRC-32C/Castagnoli, which
// is hardware-accelerated on amd64/arm64 — validating a 30 MB chip costs
// about a millisecond):
//
//	header (72 bytes):
//	  [0:4]    magic "SIMX"
//	  [4:8]    version   uint32 = 2
//	  [8:12]   headerCRC uint32 — CRC-32C of bytes [12:payloadStart]
//	  [12:16]  sectionCount uint32
//	  [16:24]  fileSize  uint64 — total file length; trailing bytes reject
//	  [24:56]  sourceHash [32]byte — SHA-256 of the originating .sim text
//	  [56:60]  payloadCRC uint32 — CRC-32C of bytes [payloadStart:fileSize]
//	  [60:64]  nNodes    uint32
//	  [64:68]  nTrans    uint32
//	  [68:72]  reserved  uint32 = 0
//	section table (sectionCount × 24 bytes at offset 72):
//	  id uint32, reserved uint32 = 0, off uint64, len uint64
//	sections (each off ≥ payloadStart, off %8 == 0, zero padding between):
//	  1 tech       technology name bytes
//	  2 name       network name bytes
//	  3 nodeKind   nNodes × uint8
//	  4 nodeFlags  nNodes × uint8 (bit 0: precharged)
//	  5 nodeCap    nNodes × float64
//	  6 trans      nTrans × 40-byte record: W,L,R float64 at 0,8,16;
//	               Gate,A,B int32 at 24,28,32; Type,Flow uint8 at 36,37;
//	               2 zero pad bytes
//	  7 gateStart  (nNodes+1) × uint32 — CSR offsets of Node.Gates
//	  8 termStart  (nNodes+1) × uint32 — CSR offsets of Node.Terms
//	  9 nameOff    (nNodes+1) × uint32 — offsets into nameData
//	 10 nameData   concatenated node names
//	 11 inst       nInst × 16-byte record {TransLo,TransHi,PathOff,PathEnd
//	               uint32} — OPTIONAL; present only when the network carries
//	               hierarchical instance annotations, so instance-free files
//	               are byte-identical to what earlier writers produced
//	 12 instPath   concatenated instance path bytes (with section 11)
//
// The adjacency reference lists themselves are not stored: replaying
// transistors in index order reproduces AddTrans's insertion order
// exactly, and the stored CSR offsets are re-derived from the records at
// load and must match — a redundancy check on top of the CRC, since a
// wrong offset table would silently mis-slice the shared backing array.
//
// Every byte of a file is covered by a check: [0:12] by the explicit
// magic/version/headerCRC comparisons, [12:payloadStart] by headerCRC,
// [payloadStart:fileSize] (including alignment padding, which writers
// zero) by payloadCRC, and anything beyond fileSize by the exact-length
// requirement.
package netlist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/maphash"
	"io"
	"math"
	"os"
	"slices"

	"repro/internal/tech"
)

const snapshotMagic = "SIMX"

// SnapshotVersion is the .simx format version WriteSnapshot emits and
// the only one the decoder accepts.
const SnapshotVersion = 2

// maxSnapshotCount bounds the node/transistor counts a reader will
// trust before allocating — a corrupt header must not ask for terabytes.
const maxSnapshotCount = 1 << 28

const (
	v2HeaderSize  = 72
	v2SectionSize = 24
	v2MaxSections = 64

	secTech      = 1
	secName      = 2
	secNodeKind  = 3
	secNodeFlags = 4
	secNodeCap   = 5
	secTrans     = 6
	secGateStart = 7
	secTermStart = 8
	secNameOff   = 9
	secNameData  = 10
	secInst      = 11 // optional: instance records
	secInstPath  = 12 // optional: instance path bytes

	v2InstRecSize = 16
)

// transRecSize is the width of a section-6 transistor record.
const transRecSize = 40

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// v2File is a validated view over a snapshot's bytes: header fields plus
// the located sections. The byte slices alias the input data.
type v2File struct {
	sourceHash     [32]byte
	nNodes, nTrans int

	techName, name       []byte
	nodeKind, nodeFlags  []byte
	nodeCap              []byte // nNodes × float64
	trans                []byte // nTrans × transRecSize
	gateStart, termStart []byte // (nNodes+1) × uint32
	nameOff              []byte // (nNodes+1) × uint32
	nameData             []byte
	inst, instPath       []byte // optional instance sections (may be nil)

	payload    []byte // everything past the section table; see verify
	payloadCRC uint32 // stored checksum the payload must match
}

// parseSnapshot validates a snapshot image structurally — magic,
// version, header CRC, bounds-checked section table, exact section
// sizes — and returns the section views. It never allocates
// proportionally to the input. The payload checksum is NOT verified
// here; decodeSnapshot runs verify beside the build.
func parseSnapshot(data []byte) (*v2File, error) {
	if len(data) < v2HeaderSize || string(data[:4]) != snapshotMagic {
		return nil, fmt.Errorf("simx: bad magic")
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != SnapshotVersion {
		return nil, fmt.Errorf("simx: version %d, want %d", v, SnapshotVersion)
	}
	count := binary.LittleEndian.Uint32(data[12:16])
	if count == 0 || count > v2MaxSections {
		return nil, fmt.Errorf("simx: implausible section count %d", count)
	}
	payloadStart := v2HeaderSize + int(count)*v2SectionSize
	if len(data) < payloadStart {
		return nil, fmt.Errorf("simx: truncated section table")
	}
	fileSize := binary.LittleEndian.Uint64(data[16:24])
	if fileSize != uint64(len(data)) {
		return nil, fmt.Errorf("simx: file is %d bytes, header says %d", len(data), fileSize)
	}
	if got, want := crc32.Checksum(data[12:payloadStart], castagnoli), binary.LittleEndian.Uint32(data[8:12]); got != want {
		return nil, fmt.Errorf("simx: header checksum mismatch")
	}
	if binary.LittleEndian.Uint32(data[68:72]) != 0 {
		return nil, fmt.Errorf("simx: nonzero reserved header field")
	}

	v := &v2File{
		nNodes:     int(binary.LittleEndian.Uint32(data[60:64])),
		nTrans:     int(binary.LittleEndian.Uint32(data[64:68])),
		payload:    data[payloadStart:],
		payloadCRC: binary.LittleEndian.Uint32(data[56:60]),
	}
	copy(v.sourceHash[:], data[24:56])
	if uint64(v.nNodes) > maxSnapshotCount || uint64(v.nTrans) > maxSnapshotCount {
		return nil, fmt.Errorf("simx: implausible counts %d/%d", v.nNodes, v.nTrans)
	}
	secs := make(map[uint32][]byte, count)
	for i := 0; i < int(count); i++ {
		ent := data[v2HeaderSize+i*v2SectionSize:][:v2SectionSize]
		id := binary.LittleEndian.Uint32(ent[0:4])
		if binary.LittleEndian.Uint32(ent[4:8]) != 0 {
			return nil, fmt.Errorf("simx: section %d has nonzero reserved field", id)
		}
		off := binary.LittleEndian.Uint64(ent[8:16])
		length := binary.LittleEndian.Uint64(ent[16:24])
		if off%8 != 0 {
			return nil, fmt.Errorf("simx: section %d misaligned at offset %d", id, off)
		}
		if off < uint64(payloadStart) || off > fileSize || length > fileSize-off {
			return nil, fmt.Errorf("simx: section %d out of bounds (off %d len %d)", id, off, length)
		}
		if _, dup := secs[id]; dup {
			return nil, fmt.Errorf("simx: duplicate section %d", id)
		}
		secs[id] = data[off : off+length]
	}
	want := func(id uint32, size int, what string) ([]byte, error) {
		b, ok := secs[id]
		if !ok {
			return nil, fmt.Errorf("simx: missing %s section", what)
		}
		if size >= 0 && len(b) != size {
			return nil, fmt.Errorf("simx: %s section is %d bytes, want %d", what, len(b), size)
		}
		return b, nil
	}
	n, t := v.nNodes, v.nTrans
	var err error
	if v.techName, err = want(secTech, -1, "tech"); err != nil {
		return nil, err
	}
	if v.name, err = want(secName, -1, "name"); err != nil {
		return nil, err
	}
	if v.nodeKind, err = want(secNodeKind, n, "node-kind"); err != nil {
		return nil, err
	}
	if v.nodeFlags, err = want(secNodeFlags, n, "node-flags"); err != nil {
		return nil, err
	}
	if v.nodeCap, err = want(secNodeCap, 8*n, "node-cap"); err != nil {
		return nil, err
	}
	if v.trans, err = want(secTrans, transRecSize*t, "transistor"); err != nil {
		return nil, err
	}
	if v.gateStart, err = want(secGateStart, 4*(n+1), "gate-start"); err != nil {
		return nil, err
	}
	if v.termStart, err = want(secTermStart, 4*(n+1), "term-start"); err != nil {
		return nil, err
	}
	if v.nameOff, err = want(secNameOff, 4*(n+1), "name-offset"); err != nil {
		return nil, err
	}
	if v.nameData, err = want(secNameData, -1, "name-data"); err != nil {
		return nil, err
	}
	// The instance sections are optional — written only when the network
	// carries hierarchy annotations — so their absence is not an error;
	// unknown section ids beyond these remain tolerated for forward
	// compatibility.
	if b, ok := secs[secInst]; ok {
		if len(b)%v2InstRecSize != 0 {
			return nil, fmt.Errorf("simx: instance section is %d bytes, not a record multiple", len(b))
		}
		if uint64(len(b)/v2InstRecSize) > maxSnapshotCount {
			return nil, fmt.Errorf("simx: implausible instance count %d", len(b)/v2InstRecSize)
		}
		v.inst = b
		v.instPath = secs[secInstPath] // absent ⇒ every PathEnd must be 0
	}
	return v, nil
}

// buildInstances decodes the optional instance sections into Instance
// values, validating every record against the transistor count and the
// path payload.
func (v *v2File) buildInstances() ([]Instance, error) {
	if len(v.inst) == 0 {
		return nil, nil
	}
	out := make([]Instance, len(v.inst)/v2InstRecSize)
	for i := range out {
		r := v.inst[i*v2InstRecSize:]
		lo := binary.LittleEndian.Uint32(r[0:4])
		hi := binary.LittleEndian.Uint32(r[4:8])
		po := binary.LittleEndian.Uint32(r[8:12])
		pe := binary.LittleEndian.Uint32(r[12:16])
		if lo > hi || int(hi) > v.nTrans {
			return nil, fmt.Errorf("simx: instance %d has transistor range [%d,%d) outside [0,%d)", i, lo, hi, v.nTrans)
		}
		if po > pe || uint64(pe) > uint64(len(v.instPath)) {
			return nil, fmt.Errorf("simx: instance %d has path range [%d,%d) outside the path payload", i, po, pe)
		}
		out[i] = Instance{Path: string(v.instPath[po:pe]), TransLo: int(lo), TransHi: int(hi)}
	}
	return out, nil
}

// verify is the half of the decode that needs no Network: the payload
// checksum — the one pass that touches every byte — and then node-name
// uniqueness over the already decoded name table (nil when that table
// failed its own checks, whose error then stands unless the checksum's
// does). It is split out of parseSnapshot so decodeSnapshot can run it
// on its own goroutine while build materializes the network: the
// overlap is sound because build bounds-checks every index it consumes
// and never trusts payload contents for memory safety, so the worst a
// corrupt payload can do before the checksum verdict lands is produce a
// network that is then discarded.
func (v *v2File) verify(nameOff []uint32) error {
	if crc32.Checksum(v.payload, castagnoli) != v.payloadCRC {
		return fmt.Errorf("simx: payload checksum mismatch")
	}
	if nameOff == nil {
		return nil
	}
	return v.uniqueNames(nameOff)
}

// nameTable decodes the name offset table and returns it once it has
// proved every name slice in bounds: pinned endpoints plus non-decreasing
// offsets — a corrupt table must produce an error, never a panic.
func (v *v2File) nameTable() ([]uint32, error) {
	off := u32s(v.nameOff)
	if off[0] != 0 || off[v.nNodes] != uint32(len(v.nameData)) {
		return nil, fmt.Errorf("simx: name offset table does not span the name payload")
	}
	for i := 0; i < v.nNodes; i++ {
		if off[i] > off[i+1] {
			return nil, fmt.Errorf("simx: node %d has descending name offset", i)
		}
	}
	return off, nil
}

// uniqueNames rejects an image in which two nodes carry one name: the
// lazy name index would silently keep only the later of the two. An
// open-addressed table does it without building that index — at chip
// scale the map costs more than the whole build. Each slot holds the
// upper half of a name's hash beside its node number, so a probe
// compares name bytes only on a 32-bit hash match.
func (v *v2File) uniqueNames(off []uint32) error {
	name := func(i int) []byte { return v.nameData[off[i]:off[i+1]] }
	size := 4
	for size < 2*v.nNodes {
		size <<= 1
	}
	slots := make([]uint64, size) // hash>>32 <<32 | node index + 1; 0 is empty
	seed := maphash.MakeSeed()
	for i := 0; i < v.nNodes; i++ {
		h := maphash.Bytes(seed, name(i))
		for pos := h; ; pos++ {
			s := &slots[pos&uint64(size-1)]
			if *s == 0 {
				*s = h&^math.MaxUint32 | uint64(i+1)
				break
			}
			if *s>>32 == h>>32 && bytes.Equal(name(int(uint32(*s))-1), name(i)) {
				return fmt.Errorf("simx: duplicate node name %q", name(i))
			}
		}
	}
	return nil
}

// u32s decodes a section of little-endian uint32s.
func u32s(b []byte) []uint32 {
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return out
}

// decodeSnapshot is the one .simx decoder: it builds the Network a
// snapshot image encodes and returns it with the source hash recorded
// at write time. The network shares no memory with data.
//
// The verify pass (payload checksum, name uniqueness) and the build
// overlap, and both have finished before decodeSnapshot returns. The
// verify verdict wins, so a corrupt file reports "payload checksum
// mismatch" whether or not the name table or the build also tripped
// over the damage.
func decodeSnapshot(data []byte, p *tech.Params) (*Network, [32]byte, error) {
	v, err := parseSnapshot(data)
	if err != nil {
		return nil, [32]byte{}, err
	}
	nameOff, err := v.nameTable()
	verdict := make(chan error, 1)
	go func() { verdict <- v.verify(nameOff) }()
	var nw *Network
	if err == nil {
		nw, err = v.build(p, nameOff)
	}
	if verr := <-verdict; verr != nil {
		err = verr
	}
	if err != nil {
		return nil, v.sourceHash, err
	}
	return nw, v.sourceHash, nil
}

// build materializes the Network from a structurally valid view and its
// checked name table in one fused scan: each record is read once, its
// Trans fields and all three adjacency placements done while it is hot,
// then a single node loop sets headers and rails. The name index is left
// to lazy construction (Network.nameIndex). It validates every index it
// consumes, so a payload whose checksum is still being computed can
// produce an error here but never an out-of-range access.
func (v *v2File) build(p *tech.Params, nameOff []uint32) (*Network, error) {
	fail := func(format string, args ...any) (*Network, error) {
		return nil, fmt.Errorf("simx: "+format, args...)
	}
	if got := string(v.techName); got != p.Name {
		return fail("technology %q, want %q", got, p.Name)
	}
	nNodes, nTrans := v.nNodes, v.nTrans

	// The stored CSR offset tables must be plausible before they steer
	// any write: monotone non-decreasing with pinned endpoints (every
	// transistor gates exactly one node; terminal refs are 1 or 2 per
	// device). The per-record cursor checks below then prove the tables
	// agree with the records exactly — a mis-written table the CRC alone
	// cannot catch must produce an error, never an overrun.
	gateStart, termStart := u32s(v.gateStart), u32s(v.termStart)
	if gateStart[0] != 0 || int(gateStart[nNodes]) != nTrans ||
		termStart[0] != 0 || int(termStart[nNodes]) < nTrans || int(termStart[nNodes]) > 2*nTrans {
		return fail("adjacency offset table does not span the records")
	}
	for i := 0; i < nNodes; i++ {
		if gateStart[i] > gateStart[i+1] || termStart[i] > termStart[i+1] {
			return fail("adjacency offset table descends at node %d", i)
		}
	}

	nw := &Network{
		Name:  string(v.name),
		Tech:  p,
		Nodes: make([]*Node, nNodes),
		Trans: make([]*Trans, nTrans),
	}
	var err error
	if nw.Instances, err = v.buildInstances(); err != nil {
		return nil, err
	}
	trans := make([]Trans, nTrans) // one allocation for all transistors
	nodes := make([]Node, nNodes)  // one allocation for all node structs
	un := uint32(nNodes)
	le := binary.LittleEndian

	// Each record lands at its node's cursor in record order — exactly
	// the order an AddTrans replay would append — which also proves the
	// CSR tables honest: a cursor hitting the next node's start means the
	// table under-counted, cursors short of it at the end mean it
	// over-counted.
	gatesBack := make([]*Trans, gateStart[nNodes])
	termsBack := make([]*Trans, termStart[nNodes])
	gcur := slices.Clone(gateStart[:nNodes])
	tcur := slices.Clone(termStart[:nNodes])
	for j := range trans {
		r := v.trans[j*transRecSize:][:transRecSize]
		typ, flow := r[36], r[37]
		if typ > uint8(tech.RWire) || flow > uint8(FlowOff) {
			return fail("transistor %d has type %d flow %d", j, typ, flow)
		}
		g, ta, tb := le.Uint32(r[24:]), le.Uint32(r[28:]), le.Uint32(r[32:])
		if g >= un || ta >= un || tb >= un {
			return fail("transistor %d references node out of range", j)
		}
		t := &trans[j]
		t.Index = j
		t.Type = tech.Device(typ)
		t.Flow = Flow(flow)
		t.Gate, t.A, t.B = &nodes[g], &nodes[ta], &nodes[tb]
		t.W = math.Float64frombits(le.Uint64(r[0:]))
		t.L = math.Float64frombits(le.Uint64(r[8:]))
		t.ROverride = math.Float64frombits(le.Uint64(r[16:]))
		nw.Trans[j] = t
		p := gcur[g]
		if p == gateStart[g+1] {
			return fail("adjacency offset table disagrees with records at node %d", g)
		}
		gatesBack[p] = t
		gcur[g] = p + 1
		p = tcur[ta]
		if p == termStart[ta+1] {
			return fail("adjacency offset table disagrees with records at node %d", ta)
		}
		termsBack[p] = t
		tcur[ta] = p + 1
		if tb != ta {
			p = tcur[tb]
			if p == termStart[tb+1] {
				return fail("adjacency offset table disagrees with records at node %d", tb)
			}
			termsBack[p] = t
			tcur[tb] = p + 1
		}
	}
	for i := 0; i < nNodes; i++ {
		if gcur[i] != gateStart[i+1] || tcur[i] != termStart[i+1] {
			return fail("adjacency offset table disagrees with records at node %d", i)
		}
	}
	names := string(v.nameData) // the one copy every Node.Name slices
	for i := range nodes {
		n := &nodes[i]
		n.Index = i
		kind := v.nodeKind[i]
		if kind > uint8(KindOutput) {
			return fail("node %d has kind %d", i, kind)
		}
		n.Name = names[nameOff[i]:nameOff[i+1]]
		n.Kind = NodeKind(kind)
		n.Precharged = v.nodeFlags[i]&1 != 0
		n.Cap = math.Float64frombits(le.Uint64(v.nodeCap[8*i:]))
		n.Gates = gatesBack[gateStart[i]:gateStart[i+1]]
		n.Terms = termsBack[termStart[i]:termStart[i+1]]
		nw.Nodes[i] = n
		switch n.Kind {
		case KindVdd:
			if nw.vdd != nil {
				return fail("duplicate Vdd rail")
			}
			nw.vdd = n
		case KindGnd:
			if nw.gnd != nil {
				return fail("duplicate GND rail")
			}
			nw.gnd = n
		}
	}
	if nw.vdd == nil || nw.gnd == nil {
		return fail("missing supply rails")
	}
	return nw, nil
}

// WriteSnapshot encodes nw to w in the .simx format. sourceHash should
// be the SHA-256 of the .sim text (or any caller-defined cache key) that
// nw was built from; the loaders hand it back so callers can validate
// freshness.
func WriteSnapshot(w io.Writer, nw *Network, sourceHash [32]byte) error {
	n, t := len(nw.Nodes), len(nw.Trans)
	type sec struct {
		id  uint32
		buf []byte
	}
	pad8 := func(x int) int { return (x + 7) &^ 7 }

	techB := []byte(nw.Tech.Name)
	nameB := []byte(nw.Name)
	kinds := make([]byte, n)
	flags := make([]byte, n)
	caps := make([]byte, 8*n)
	gateStart := make([]byte, 4*(n+1))
	termStart := make([]byte, 4*(n+1))
	nameOff := make([]byte, 4*(n+1))
	var nameData []byte
	var offG, offT, offN uint32
	for i, nd := range nw.Nodes {
		kinds[i] = uint8(nd.Kind)
		if nd.Precharged {
			flags[i] |= 1
		}
		binary.LittleEndian.PutUint64(caps[8*i:], math.Float64bits(nd.Cap))
		binary.LittleEndian.PutUint32(gateStart[4*i:], offG)
		binary.LittleEndian.PutUint32(termStart[4*i:], offT)
		binary.LittleEndian.PutUint32(nameOff[4*i:], offN)
		offG += uint32(len(nd.Gates))
		offT += uint32(len(nd.Terms))
		offN += uint32(len(nd.Name))
		nameData = append(nameData, nd.Name...)
	}
	binary.LittleEndian.PutUint32(gateStart[4*n:], offG)
	binary.LittleEndian.PutUint32(termStart[4*n:], offT)
	binary.LittleEndian.PutUint32(nameOff[4*n:], offN)
	recs := make([]byte, transRecSize*t)
	for j, tr := range nw.Trans {
		r := recs[j*transRecSize:]
		binary.LittleEndian.PutUint64(r[0:8], math.Float64bits(tr.W))
		binary.LittleEndian.PutUint64(r[8:16], math.Float64bits(tr.L))
		binary.LittleEndian.PutUint64(r[16:24], math.Float64bits(tr.ROverride))
		binary.LittleEndian.PutUint32(r[24:28], uint32(tr.Gate.Index))
		binary.LittleEndian.PutUint32(r[28:32], uint32(tr.A.Index))
		binary.LittleEndian.PutUint32(r[32:36], uint32(tr.B.Index))
		r[36], r[37] = uint8(tr.Type), uint8(tr.Flow)
	}

	secs := []sec{
		{secTech, techB},
		{secName, nameB},
		{secNodeKind, kinds},
		{secNodeFlags, flags},
		{secNodeCap, caps},
		{secTrans, recs},
		{secGateStart, gateStart},
		{secTermStart, termStart},
		{secNameOff, nameOff},
		{secNameData, nameData},
	}
	// Instance sections ride behind the fixed ten only when the network
	// carries hierarchy annotations, so instance-free networks produce
	// files byte-identical to earlier writers'.
	if len(nw.Instances) > 0 {
		instB := make([]byte, v2InstRecSize*len(nw.Instances))
		var instPathB []byte
		for i, inst := range nw.Instances {
			r := instB[v2InstRecSize*i:]
			binary.LittleEndian.PutUint32(r[0:4], uint32(inst.TransLo))
			binary.LittleEndian.PutUint32(r[4:8], uint32(inst.TransHi))
			binary.LittleEndian.PutUint32(r[8:12], uint32(len(instPathB)))
			instPathB = append(instPathB, inst.Path...)
			binary.LittleEndian.PutUint32(r[12:16], uint32(len(instPathB)))
		}
		secs = append(secs, sec{secInst, instB}, sec{secInstPath, instPathB})
	}
	payloadStart := v2HeaderSize + len(secs)*v2SectionSize
	total := payloadStart
	offs := make([]int, len(secs))
	for i, s := range secs {
		offs[i] = total
		total = pad8(total + len(s.buf))
	}
	out := make([]byte, total) // ends at the last section's padded edge
	copy(out[:4], snapshotMagic)
	binary.LittleEndian.PutUint32(out[4:8], SnapshotVersion)
	binary.LittleEndian.PutUint32(out[12:16], uint32(len(secs)))
	binary.LittleEndian.PutUint64(out[16:24], uint64(total))
	copy(out[24:56], sourceHash[:])
	binary.LittleEndian.PutUint32(out[60:64], uint32(n))
	binary.LittleEndian.PutUint32(out[64:68], uint32(t))
	for i, s := range secs {
		ent := out[v2HeaderSize+i*v2SectionSize:][:v2SectionSize]
		binary.LittleEndian.PutUint32(ent[0:4], s.id)
		binary.LittleEndian.PutUint64(ent[8:16], uint64(offs[i]))
		binary.LittleEndian.PutUint64(ent[16:24], uint64(len(s.buf)))
		copy(out[offs[i]:], s.buf)
	}
	binary.LittleEndian.PutUint32(out[56:60], crc32.Checksum(out[payloadStart:], castagnoli))
	binary.LittleEndian.PutUint32(out[8:12], crc32.Checksum(out[12:payloadStart], castagnoli))
	if _, err := w.Write(out); err != nil {
		return fmt.Errorf("simx: %w", err)
	}
	return nil
}

// ReadSnapshot decodes a .simx snapshot read from r into a fresh
// Network in technology p, returning the network and the source hash
// recorded at write time. It fails on bad magic, unknown version,
// checksum mismatch, truncated or trailing bytes, a structurally
// inconsistent payload, or a technology name different from p.Name —
// all of which mean "re-parse the source", not "the file is usable
// anyway".
func ReadSnapshot(r io.Reader, p *tech.Params) (*Network, [32]byte, error) {
	data, err := readAllSized(r)
	if err != nil {
		return nil, [32]byte{}, fmt.Errorf("simx: %w", err)
	}
	return decodeSnapshot(data, p)
}

// readAllSized reads r to EOF like io.ReadAll, but pre-sizes the buffer
// when the reader can report its length (bytes.Reader via Len, os.File
// via Stat), sparing the growth-chain copies of a blind ReadAll. No
// production load reads through it — LoadCached's hit is an os.ReadFile —
// so its callers are ReadSnapshot's: tests and the benchmark's probes.
func readAllSized(r io.Reader) ([]byte, error) {
	size := -1
	switch rr := r.(type) {
	case interface{ Len() int }:
		size = rr.Len()
	case *os.File:
		if st, err := rr.Stat(); err == nil && st.Mode().IsRegular() {
			if s := st.Size(); 0 <= s && s < int64(math.MaxInt32) {
				size = int(s)
			}
		}
	}
	if size < 0 {
		return io.ReadAll(r)
	}
	data := make([]byte, size)
	n, err := io.ReadFull(r, data)
	if err == io.ErrUnexpectedEOF || err == io.EOF {
		return data[:n], nil
	}
	if err != nil {
		return nil, err
	}
	// The source may hold more than the hint (e.g. a file grown between
	// Stat and read); drain the remainder the slow way.
	rest, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return append(data, rest...), nil
}

package netlist

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/tech"
)

// loadFunc decodes a snapshot image handed over as bytes.
type loadFunc func(data []byte, p *tech.Params) (*Network, [32]byte, error)

// bothSources runs f once per way bytes reach decodeSnapshot — read
// from a stream, mapped from a file. Every acceptance and every
// rejection below is asserted through both: the decoder is one
// function, and these tests are what keep "the only thing that differs
// is where the bytes live" true.
func bothSources(t *testing.T, f func(t *testing.T, load loadFunc)) {
	t.Run("reader", func(t *testing.T) {
		f(t, func(data []byte, p *tech.Params) (*Network, [32]byte, error) {
			return ReadSnapshot(bytes.NewReader(data), p)
		})
	})
	t.Run("mapping", func(t *testing.T) {
		if !MmapSupported {
			t.Skip("no mmap on this platform")
		}
		f(t, func(data []byte, p *tech.Params) (*Network, [32]byte, error) {
			m, err := OpenMapped(writeTemp(t, data), p)
			if err != nil {
				return nil, [32]byte{}, err
			}
			t.Cleanup(func() { m.Close() }) // names alias the mapping until the test ends
			return m.Net, m.SourceHash, nil
		})
	})
}

// refreshCRCs recomputes both checksums of an image in place, so
// corruption tests can mutate structure and still reach the check that
// the mutation targets (instead of tripping the CRC first).
func refreshCRCs(b []byte) {
	count := binary.LittleEndian.Uint32(b[12:16])
	ps := v2HeaderSize + v2SectionSize*int(count)
	binary.LittleEndian.PutUint32(b[56:60], crc32.Checksum(b[ps:], castagnoli))
	binary.LittleEndian.PutUint32(b[8:12], crc32.Checksum(b[12:ps], castagnoli))
}

// sectionEntry locates the section-table entry for id in an image.
func sectionEntry(t *testing.T, b []byte, id uint32) []byte {
	t.Helper()
	count := binary.LittleEndian.Uint32(b[12:16])
	for i := 0; i < int(count); i++ {
		ent := b[v2HeaderSize+i*v2SectionSize:][:v2SectionSize]
		if binary.LittleEndian.Uint32(ent[0:4]) == id {
			return ent
		}
	}
	t.Fatalf("section %d not in table", id)
	return nil
}

// section returns the bytes of section id within image b.
func section(t *testing.T, b []byte, id uint32) []byte {
	t.Helper()
	ent := sectionEntry(t, b, id)
	off := binary.LittleEndian.Uint64(ent[8:16])
	return b[off : off+binary.LittleEndian.Uint64(ent[16:24])]
}

func snapshotBytes(t testing.TB, nw *Network, hash [32]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, nw, hash); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func sampleBytes(t testing.TB, p *tech.Params) ([]byte, *Network, [32]byte) {
	t.Helper()
	nw, err := ReadSim("sample", p, strings.NewReader(sampleSim))
	if err != nil {
		t.Fatal(err)
	}
	hash := sha256.Sum256([]byte(sampleSim))
	return snapshotBytes(t, nw, hash), nw, hash
}

func writeTemp(t testing.TB, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "net.simx")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSnapshotRoundTripProperty: for a population of random networks,
// snapshot encode → decode reproduces the network exactly — structure,
// indexes, adjacency order — the lazily built name index answers every
// lookup, and the decoded network re-serializes to the same .sim bytes
// as the original.
func TestSnapshotRoundTripProperty(t *testing.T) {
	bothSources(t, func(t *testing.T, load loadFunc) {
		for _, p := range []*tech.Params{tech.NMOS4(), tech.CMOS3()} {
			for seed := uint64(0); seed < 40; seed++ {
				nw := randomNetwork(seed, p)
				hash := sha256.Sum256([]byte(nw.Name))
				got, gotHash, err := load(snapshotBytes(t, nw, hash), p)
				if err != nil {
					t.Fatalf("seed %d: read: %v", seed, err)
				}
				if gotHash != hash {
					t.Fatalf("seed %d: source hash mangled", seed)
				}
				if derr := DiffNetworks(nw, got); derr != nil {
					t.Fatalf("seed %d: %v", seed, derr)
				}
				for _, n := range nw.Nodes {
					if g := got.Lookup(n.Name); g == nil || g.Index != n.Index {
						t.Fatalf("seed %d: Lookup(%q) = %v", seed, n.Name, g)
					}
				}
				var a, b strings.Builder
				if err := WriteSim(&a, nw); err != nil {
					t.Fatal(err)
				}
				if err := WriteSim(&b, got); err != nil {
					t.Fatal(err)
				}
				if a.String() != b.String() {
					t.Fatalf("seed %d: WriteSim differs after snapshot round trip", seed)
				}
			}
		}
	})
}

// TestSnapshotWriterBytes pins the on-disk layout: the writer's output
// over the round-trip population plus an instance-bearing network is
// the same bytes every earlier version-2 writer produced, so files
// written before and after any change to this package load on either
// side.
func TestSnapshotWriterBytes(t *testing.T) {
	h := sha256.New()
	for _, p := range []*tech.Params{tech.NMOS4(), tech.CMOS3()} {
		for seed := uint64(0); seed < 40; seed++ {
			nw := randomNetwork(seed, p)
			h.Write(snapshotBytes(t, nw, sha256.Sum256([]byte(nw.Name))))
		}
	}
	h.Write(snapshotBytes(t, instNetwork(t, tech.NMOS4()), sha256.Sum256([]byte(instSampleSim))))
	const want = "7fdf1dfb4eb1a69dee339ecfa8a2fd9f81f076001e8cca2a020db6faabc66147"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("writer output changed: digest %s, want %s", got, want)
	}
}

// TestSnapshotParsedRoundTrip: parse → snapshot → load is identical to
// the parse for a real parsed netlist (exercises rails, aliases resolved
// away, directives, wire resistors), and the loaded network passes Check.
func TestSnapshotParsedRoundTrip(t *testing.T) {
	p := tech.NMOS4()
	data, nw, _ := sampleBytes(t, p)
	bothSources(t, func(t *testing.T, load loadFunc) {
		got, _, err := load(data, p)
		if err != nil {
			t.Fatal(err)
		}
		if derr := DiffNetworks(nw, got); derr != nil {
			t.Fatal(derr)
		}
		if err := got.Check(); err != nil {
			t.Fatalf("loaded snapshot fails Check: %v", err)
		}
	})
}

// TestSnapshotRejects: every class of damage the decoder must turn into
// an error — never a panic, never a silently different network. Named
// structural mutations refresh the CRCs so the targeted check, not the
// checksum, does the rejecting (want is a fragment of that check's
// message); then every single-byte flip, every truncation and a
// trailing byte.
func TestSnapshotRejects(t *testing.T) {
	p := tech.NMOS4()
	data, nw, _ := sampleBytes(t, p)
	instData := snapshotBytes(t, instNetwork(t, p), sha256.Sum256([]byte(instSampleSim)))
	u32 := binary.LittleEndian.PutUint32
	u64 := binary.LittleEndian.PutUint64
	const tableStart = v2HeaderSize // section-table entry 0 (tech)
	instRec := func(t *testing.T, b []byte) []byte { return section(t, b, secInst) }

	muts := []struct {
		name, want string
		base       []byte
		stale      bool // leave the CRCs as the mutation left them
		f          func(t *testing.T, b []byte)
	}{
		{"bad magic", "bad magic", data, true, func(t *testing.T, b []byte) { b[0] = 'X' }},
		{"version 1", "version 1, want 2", data, true, func(t *testing.T, b []byte) { u32(b[4:8], 1) }},
		{"version 3", "version 3, want 2", data, true, func(t *testing.T, b []byte) { u32(b[4:8], 3) }},
		{"payload CRC mismatch", "payload checksum mismatch", data, true, func(t *testing.T, b []byte) { b[len(b)-1] ^= 0x40 }},
		{"header CRC mismatch", "header checksum mismatch", data, true, func(t *testing.T, b []byte) { b[24] ^= 0x40 }},
		{"misaligned section offset", "misaligned", data, false, func(t *testing.T, b []byte) {
			u64(b[tableStart+8:], binary.LittleEndian.Uint64(b[tableStart+8:])+1)
		}},
		{"section out of bounds", "out of bounds", data, false, func(t *testing.T, b []byte) { u64(b[tableStart+8:], uint64(len(b)+8)) }},
		{"section overlaps header", "out of bounds", data, false, func(t *testing.T, b []byte) { u64(b[tableStart+8:], 0) }},
		{"duplicate section", "duplicate section", data, false, func(t *testing.T, b []byte) {
			copy(b[tableStart+v2SectionSize:], b[tableStart:tableStart+v2SectionSize])
		}},
		{"missing section", "missing tech section", data, false, func(t *testing.T, b []byte) { u32(b[tableStart:], 63) }},
		{"implausible node count", "implausible counts", data, false, func(t *testing.T, b []byte) { u32(b[60:64], 1<<30) }},
		{"wrong file size", "header says", data, false, func(t *testing.T, b []byte) { u64(b[16:24], uint64(len(b))+8) }},
		{"nonzero reserved header field", "reserved header field", data, false, func(t *testing.T, b []byte) { u32(b[68:72], 1) }},
		{"node index out of range", "references node out of range", data, false, func(t *testing.T, b []byte) {
			u32(section(t, b, secTrans)[24:], uint32(len(nw.Nodes)))
		}},
		{"bad transistor type", "has type 200", data, false, func(t *testing.T, b []byte) { section(t, b, secTrans)[36] = 200 }},
		{"bad transistor flow", "flow 200", data, false, func(t *testing.T, b []byte) { section(t, b, secTrans)[37] = 200 }},
		{"bad node kind", "has kind 200", data, false, func(t *testing.T, b []byte) { section(t, b, secNodeKind)[2] = 200 }},
		{"duplicate Vdd rail", "duplicate Vdd rail", data, false, func(t *testing.T, b []byte) {
			section(t, b, secNodeKind)[2] = uint8(KindVdd)
		}},
		{"missing GND rail", "missing supply rails", data, false, func(t *testing.T, b []byte) {
			section(t, b, secNodeKind)[nw.GND().Index] = uint8(KindNormal)
		}},
		{"gate CSR disagrees with records", "disagrees with records", data, false, func(t *testing.T, b []byte) {
			// Take one gate reference away from the first node that has
			// any and give it to the next: endpoints and monotonicity
			// hold, the per-record cursors do not.
			gs := section(t, b, secGateStart)
			for i := 1; i < len(nw.Nodes); i++ {
				lo, hi := binary.LittleEndian.Uint32(gs[4*i-4:]), binary.LittleEndian.Uint32(gs[4*i:])
				if hi > lo {
					u32(gs[4*i:], hi-1)
					return
				}
			}
			t.Fatal("no node before the last has gate fanout")
		}},
		{"term CSR does not span records", "does not span the records", data, false, func(t *testing.T, b []byte) {
			u32(section(t, b, secTermStart)[4*len(nw.Nodes):], 0)
		}},
		{"term CSR descends", "descends at node", data, false, func(t *testing.T, b []byte) {
			u32(section(t, b, secTermStart)[4:], 1<<20)
		}},
		{"descending name offsets", "descending name offset", data, false, func(t *testing.T, b []byte) {
			u32(section(t, b, secNameOff)[4:], 1<<20)
		}},
		{"name offsets do not span payload", "does not span the name payload", data, false, func(t *testing.T, b []byte) {
			u32(section(t, b, secNameOff)[4*len(nw.Nodes):], 1)
		}},
		{"duplicate node names", `duplicate node name "Vdd"`, data, false, func(t *testing.T, b []byte) {
			// The rails' names are both three bytes: write "Vdd" over "GND".
			off, names := section(t, b, secNameOff), section(t, b, secNameData)
			vdd := binary.LittleEndian.Uint32(off[4*nw.Vdd().Index:])
			gnd := binary.LittleEndian.Uint32(off[4*nw.GND().Index:])
			copy(names[gnd:gnd+3], names[vdd:vdd+3])
		}},
		{"instance range past transistor count", "transistor range [0,5)", instData, false, func(t *testing.T, b []byte) {
			u32(instRec(t, b)[4:], 5)
		}},
		{"instance inverted transistor range", "transistor range [3,1)", instData, false, func(t *testing.T, b []byte) {
			u32(instRec(t, b)[0:], 3)
			u32(instRec(t, b)[4:], 1)
		}},
		{"instance path end past payload", "outside the path payload", instData, false, func(t *testing.T, b []byte) {
			u32(instRec(t, b)[12:], 1<<20)
		}},
		{"instance inverted path range", "path range [4,1)", instData, false, func(t *testing.T, b []byte) {
			u32(instRec(t, b)[8:], 4)
			u32(instRec(t, b)[12:], 1)
		}},
		{"instance ragged record size", "not a record multiple", instData, false, func(t *testing.T, b []byte) {
			ent := sectionEntry(t, b, secInst)
			u64(ent[16:24], binary.LittleEndian.Uint64(ent[16:24])-1)
		}},
		{"instance path section missing", "outside the path payload", instData, false, func(t *testing.T, b []byte) {
			// Retag instPath as an unknown id: PathEnd then exceeds the
			// (now empty) path payload.
			u32(sectionEntry(t, b, secInstPath)[0:4], 63)
		}},
	}
	bothSources(t, func(t *testing.T, load loadFunc) {
		for _, img := range [][]byte{data, instData} {
			if _, _, err := load(img, p); err != nil {
				t.Fatalf("pristine image rejected: %v", err)
			}
		}
		for _, m := range muts {
			b := bytes.Clone(m.base)
			m.f(t, b)
			if !m.stale {
				refreshCRCs(b)
			}
			if _, _, err := load(b, p); err == nil || !strings.Contains(err.Error(), m.want) {
				t.Errorf("%s: got %v, want an error containing %q", m.name, err, m.want)
			}
		}
		if _, _, err := load(data, tech.CMOS3()); err == nil || !strings.Contains(err.Error(), "technology") {
			t.Errorf("cross-technology load: got %v", err)
		}
		for _, img := range [][]byte{data, instData} {
			for off := range img {
				mut := bytes.Clone(img)
				mut[off] ^= 0x40
				if _, _, err := load(mut, p); err == nil {
					t.Fatalf("single-byte corruption at offset %d accepted", off)
				}
			}
			for cut := 0; cut < len(img); cut++ {
				if _, _, err := load(img[:cut], p); err == nil {
					t.Fatalf("truncation at %d accepted", cut)
				}
			}
			if _, _, err := load(append(bytes.Clone(img), 0), p); err == nil {
				t.Fatal("trailing byte accepted")
			}
		}
	})
}

// TestSnapshotPayloadVerdictWins: when the payload is damaged in a way
// the build also trips over, the error is the checksum's — the build
// ran beside the checksum on bytes nobody had vouched for yet, and its
// complaint about them is not the diagnosis.
func TestSnapshotPayloadVerdictWins(t *testing.T) {
	p := tech.NMOS4()
	data, _, _ := sampleBytes(t, p)
	section(t, data, secTrans)[36] = 200 // bad type, CRCs left stale
	bothSources(t, func(t *testing.T, load loadFunc) {
		_, _, err := load(data, p)
		if err == nil || !strings.Contains(err.Error(), "payload checksum mismatch") {
			t.Fatalf("got %v, want the payload checksum verdict", err)
		}
	})
}

// TestMappedLifetime: Size reports the mapped length and Close is
// idempotent.
func TestMappedLifetime(t *testing.T) {
	if !MmapSupported {
		t.Skip("no mmap on this platform")
	}
	p := tech.NMOS4()
	data, _, _ := sampleBytes(t, p)
	m, err := OpenMapped(writeTemp(t, data), p)
	if err != nil {
		t.Fatal(err)
	}
	if m.Size() != len(data) {
		t.Fatalf("mapped size %d, want %d", m.Size(), len(data))
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil { // double close is defined
		t.Fatal(err)
	}
}

// TestSnapshotConcurrentLookup: many goroutines race first Lookup on one
// shared decoded view (the lazy byName build) while others walk
// adjacency — the shape of N crystald sessions aliasing one arena
// mapping. Run under -race in the CI netlist race job.
func TestSnapshotConcurrentLookup(t *testing.T) {
	p := tech.NMOS4()
	data, nw, _ := sampleBytes(t, p)
	bothSources(t, func(t *testing.T, load loadFunc) {
		got, _, err := load(data, p)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := range nw.Nodes {
					name := nw.Nodes[(i+g)%len(nw.Nodes)].Name
					n := got.Lookup(name)
					if n == nil || n.Name != name {
						t.Errorf("Lookup(%q) = %v", name, n)
						return
					}
					for _, tr := range n.Terms {
						if tr.Other(n) == nil {
							t.Errorf("adjacency of %q broken", name)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
	})
}

// TestSnapshotNameAllocations: names are views over the image, so
// decoding a network with hundreds more nodes must not cost hundreds
// more allocations.
func TestSnapshotNameAllocations(t *testing.T) {
	p := tech.NMOS4()
	encode := func(nNodes int) []byte {
		nw := New("alloc", p)
		prev := nw.Vdd()
		for i := 0; i < nNodes; i++ {
			n := nw.Node(strings.Repeat("n", 1+i%7) + "_" + string(rune('a'+i%26)) + "_" + itoa(i))
			nw.AddTrans(tech.NEnh, prev, n, nw.GND(), 0, 0)
			prev = n
		}
		return snapshotBytes(t, nw, [32]byte{1})
	}
	allocs := func(data []byte) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, _, err := ReadSnapshot(bytes.NewReader(data), p); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := encode(50), encode(450)
	if delta := allocs(large) - allocs(small); delta > 10 {
		t.Fatalf("decode allocations grew by %.0f for 400 extra nodes — per-name allocation regressed", delta)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}

// FuzzSnapshotV2 fuzzes the decoder. Every input goes through the
// reader; an input the reader accepts must also be accepted through a
// mapping, as the identical network, and must re-encode and re-decode
// to an identical network. (Rejected inputs skip the mapping leg — a
// file write and a map per execution cut the fuzzer to a few dozen
// executions a second; TestSnapshotRejects holds the two sources equal
// on every rejection class, byte flip and truncation.)
func FuzzSnapshotV2(f *testing.F) {
	p := tech.NMOS4()
	valid, _, _ := sampleBytes(f, p)
	f.Add(valid)
	f.Add(valid[:60])
	f.Add([]byte(snapshotMagic))
	f.Add(bytes.Clone(valid[:v2HeaderSize+v2SectionSize]))
	flip := bytes.Clone(valid)
	flip[len(flip)/2] ^= 0xff
	f.Add(flip)
	f.Add(snapshotBytes(f, New("empty", p), [32]byte{}))
	f.Add(snapshotBytes(f, instNetwork(f, p), [32]byte{2}))

	path := filepath.Join(f.TempDir(), "fuzz.simx") // one file per fuzz worker process
	f.Fuzz(func(t *testing.T, data []byte) {
		got, hash, err := ReadSnapshot(bytes.NewReader(data), p)
		if err != nil {
			return
		}
		if MmapSupported {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			m, err := OpenMapped(path, p)
			if err != nil {
				t.Fatalf("reader accepted what the mapping rejects: %v", err)
			}
			defer m.Close()
			if m.SourceHash != hash {
				t.Fatal("byte sources disagree on the source hash")
			}
			if derr := DiffNetworks(got, m.Net); derr != nil {
				t.Fatalf("byte sources disagree: %v", derr)
			}
		}
		again, hash2, err := ReadSnapshot(bytes.NewReader(snapshotBytes(t, got, hash)), p)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if hash2 != hash {
			t.Fatal("source hash changed across round trip")
		}
		if derr := DiffNetworks(got, again); derr != nil {
			t.Fatal(derr)
		}
	})
}

// Parallel .sim ingest: the chip-scale front door of the verifier.
//
// The serial ReadSim is a single-threaded line scanner, and on a
// multi-megabyte extracted netlist it is the cold-start bottleneck — the
// analysis cannot begin until the last line has parsed.
// Ingest, however, is embarrassingly parallel *except* for the
// order-dependent parts, so the pipeline splits in two:
//
//  1. Tokenize (parallel): the input is cut on line boundaries into one
//     contiguous chunk per worker. Each worker scans its chunk alone —
//     line splitting, field splitting, float parsing, local symbol
//     interning — and emits a flat record stream plus a local symbol
//     table. Workers never touch the network, the alias table, or each
//     other.
//  2. Reconcile (parallel): each worker canonicalizes its local symbol
//     table against a shared sharded interner as soon as its chunk is
//     tokenized. Interning used to ride inside the serial merge — one
//     global map operation per name reference — and was most of the
//     merge's tail; reconciliation moves it onto the workers, where it
//     overlaps tokenization of later chunks.
//  3. Merge (serial, in file order): the record streams are replayed
//     chunk by chunk into a fresh Network over the pre-canonicalized
//     symbols. Only what is genuinely order-dependent replays here,
//     exactly as the serial parser would have done it: alias resolution
//     (aliases apply only to later references), node creation order
//     (first-reference order defines Node.Index), the units: scale in
//     effect at each transistor line, flow-index range checks against
//     the transistors added so far, and first-error selection.
//
// The contract, pinned by TestParallelParseIdentity and FuzzReadSim: at
// any worker count ReadSimParallel produces a Network byte-identical to
// ReadSim's — same node indexes, same transistor order, same adjacency
// order, same error on rejected input. Workers follow the core
// convention: 0 = GOMAXPROCS, 1 = strict serial on the calling
// goroutine (no goroutines at all), N = at most N.
package netlist

import (
	"bufio"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"repro/internal/tech"
)

// minChunkBytes is the smallest chunk worth a worker: below this the
// per-chunk setup dominates the scan.
const minChunkBytes = 32 * 1024

// simRecKind enumerates the tokenized record types.
type simRecKind uint8

const (
	recTrans simRecKind = iota
	recResistor
	recCap2  // C a b v — split between two plates at merge
	recCapN  // N node v
	recAlias // = canon alias
	recMark  // @ in|out|precharged name...
	recFlow  // @ flow dir index
	recScale // | units: N
	recInst  // @ inst path lo hi
)

// mark subkinds for recMark.
const (
	markIn uint8 = iota
	markOut
	markPrecharged
)

// flowUnknown flags a recFlow whose direction token did not parse; the
// error is deferred to merge because the serial parser reports a bad
// transistor index ahead of an unknown direction on the same line.
const flowUnknown = Flow(-1)

// simRec is one tokenized .sim record. Symbol references are indexes
// into the owning chunk's symbol table; nothing here depends on global
// parse state.
type simRec struct {
	kind    simRecKind
	dev     tech.Device // recTrans
	flow    Flow        // recFlow (flowUnknown when the token was bad)
	mark    uint8       // recMark subkind
	hasGeom bool        // recTrans: explicit l/w fields present
	line    int32       // 1-based line within the chunk
	sym     [3]int32    // symbol refs (gate/a/b, a/b, node)
	idx     int32       // recFlow transistor index; recMark list offset
	n       int32       // recMark list length
	v1, v2  float64     // raw geometry l/w, value, or scale
	tok     string      // raw token for deferred error messages
	tok2    string      // raw direction token (recFlow)
}

// simChunk is one worker's output: records, local symbols, and the
// chunk-local position of the first tokenize error (if any).
type simChunk struct {
	recs  []simRec
	lists []int32  // pooled name lists for recMark
	syms  []string // local symbol id → token (substrings of the chunk)
	canon []string // local symbol id → canonical name (reconcile phase)
	lines int      // lines scanned (partial when errLine != 0)

	errLine    int32 // 1-based line of the first local error, 0 = none
	errMsg     string
	errTooLong bool
}

// ReadSimParallel parses a .sim netlist like ReadSim, tokenizing the
// input with the given number of workers. The resulting network — and
// the error on rejected input — is identical to ReadSim's at every
// worker count.
func ReadSimParallel(name string, p *tech.Params, r io.Reader, workers int) (*Network, error) {
	return readSimChunked(name, p, r, workers, minChunkBytes)
}

// readSimChunked is ReadSimParallel with the chunk-size floor exposed,
// so tests (and the differential fuzzer) can force multi-chunk merges on
// inputs far smaller than the production floor.
func readSimChunked(name string, p *tech.Params, r io.Reader, workers, minChunk int) (*Network, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("sim %s: %w", name, err)
	}
	// One conversion for the whole input; chunks and tokens are
	// substrings of it and allocate nothing further.
	src := string(data)
	parts := splitSimChunks(src, workers, minChunk)
	chunks := make([]*simChunk, len(parts))
	itn := NewShardedInterner(1024)
	if workers == 1 || len(parts) <= 1 {
		for i, s := range parts {
			chunks[i] = tokenizeSimChunk(p, s)
			chunks[i].reconcile(itn)
		}
	} else {
		var wg sync.WaitGroup
		for i, s := range parts {
			wg.Add(1)
			go func(i int, s string) {
				defer wg.Done()
				chunks[i] = tokenizeSimChunk(p, s)
				chunks[i].reconcile(itn)
			}(i, s)
		}
		wg.Wait()
	}
	return mergeSimChunks(name, p, chunks)
}

// reconcile canonicalizes the chunk's local symbol table against the
// shared interner — phase 2 of the pipeline, run on the tokenizer's
// worker. The canonical COPIES are scheduling-independent (byte-equal
// clones whoever interns first), so the merge's output is too.
func (ch *simChunk) reconcile(itn *ShardedInterner) {
	ch.canon = make([]string, len(ch.syms))
	for i, s := range ch.syms {
		ch.canon[i] = itn.Intern(s)
	}
}

// splitSimChunks cuts src into at most `workers` contiguous pieces on
// line boundaries. Small inputs get fewer pieces so no chunk is
// degenerate.
func splitSimChunks(src string, workers, minChunk int) []string {
	if len(src) == 0 {
		return nil
	}
	if minChunk < 1 {
		minChunk = 1
	}
	if max := len(src)/minChunk + 1; workers > max {
		workers = max
	}
	target := len(src) / workers
	if target < 1 {
		target = 1
	}
	chunks := make([]string, 0, workers)
	start := 0
	for i := 1; i < workers && start < len(src); i++ {
		cut := start + target
		if cut >= len(src) {
			break
		}
		j := strings.IndexByte(src[cut:], '\n')
		if j < 0 {
			break
		}
		cut += j + 1
		chunks = append(chunks, src[start:cut])
		start = cut
	}
	if start < len(src) {
		chunks = append(chunks, src[start:])
	}
	return chunks
}

// tokenizeSimChunk scans one chunk into records. It mirrors the serial
// parser's per-line validation exactly, deferring every check that
// depends on global parse state (alias resolution, scale, transistor
// count) to the merge.
func tokenizeSimChunk(p *tech.Params, src string) *simChunk {
	ch := &simChunk{}
	symOf := make(map[string]int32, 64)
	intern := func(tok string) int32 {
		if id, ok := symOf[tok]; ok {
			return id
		}
		id := int32(len(ch.syms))
		ch.syms = append(ch.syms, tok)
		symOf[tok] = id
		return id
	}
	line := 0
	fail := func(format string, args ...any) {
		ch.errLine = int32(line)
		ch.errMsg = fmt.Sprintf(format, args...)
	}
	rest := src
	for len(rest) > 0 {
		var ln string
		if i := strings.IndexByte(rest, '\n'); i >= 0 {
			ln, rest = rest[:i], rest[i+1:]
		} else {
			ln, rest = rest, ""
		}
		line++
		if len(ln) > maxSimLine {
			ch.errLine = int32(line)
			ch.errTooLong = true
			break
		}
		fields := strings.Fields(ln)
		if len(fields) == 0 {
			continue
		}
		key := fields[0]
		switch key {
		case "|":
			for i := 1; i < len(fields)-1; i++ {
				if fields[i] == "units:" {
					u, err := strconv.ParseFloat(fields[i+1], 64)
					if err != nil || u <= 0 {
						fail("bad units value %q", fields[i+1])
						break
					}
					ch.recs = append(ch.recs, simRec{kind: recScale, line: int32(line), v1: u})
				}
			}
		case "e", "n", "d", "p":
			if len(fields) < 4 {
				fail("transistor line needs at least 3 node names")
				break
			}
			var d tech.Device
			switch key {
			case "e", "n":
				d = tech.NEnh
			case "d":
				d = tech.NDep
			case "p":
				if !p.HasPChannel() {
					fail("p-channel transistor in technology %s", p.Name)
				}
				d = tech.PEnh
			}
			if ch.errLine != 0 {
				break
			}
			rec := simRec{kind: recTrans, dev: d, line: int32(line),
				sym: [3]int32{intern(fields[1]), intern(fields[2]), intern(fields[3])}}
			if len(fields) >= 6 {
				lv, err1 := strconv.ParseFloat(fields[4], 64)
				wv, err2 := strconv.ParseFloat(fields[5], 64)
				if err1 != nil || err2 != nil {
					fail("bad geometry %q %q", fields[4], fields[5])
					break
				}
				if lv <= 0 || wv <= 0 {
					fail("non-positive geometry %g x %g", lv, wv)
					break
				}
				rec.hasGeom, rec.v1, rec.v2 = true, lv, wv
			}
			ch.recs = append(ch.recs, rec)
		case "r":
			if len(fields) < 4 {
				fail("resistor line needs two nodes and a value")
				break
			}
			rv, err := strconv.ParseFloat(fields[3], 64)
			if err != nil || rv <= 0 {
				fail("bad resistance %q", fields[3])
				break
			}
			ch.recs = append(ch.recs, simRec{kind: recResistor, line: int32(line),
				sym: [3]int32{intern(fields[1]), intern(fields[2])}, v1: rv})
		case "C", "c":
			if len(fields) < 4 {
				fail("capacitor line needs two nodes and a value")
				break
			}
			cv, err := strconv.ParseFloat(fields[3], 64)
			if err != nil {
				fail("bad capacitance %q", fields[3])
				break
			}
			if cv < 0 {
				fail("negative capacitance %g", cv)
				break
			}
			ch.recs = append(ch.recs, simRec{kind: recCap2, line: int32(line),
				sym: [3]int32{intern(fields[1]), intern(fields[2])}, v1: cv})
		case "N":
			if len(fields) < 3 {
				fail("node capacitance line needs a node and a value")
				break
			}
			cv, err := strconv.ParseFloat(fields[len(fields)-1], 64)
			if err != nil {
				fail("bad capacitance %q", fields[len(fields)-1])
				break
			}
			ch.recs = append(ch.recs, simRec{kind: recCapN, line: int32(line),
				sym: [3]int32{intern(fields[1])}, v1: cv})
		case "=":
			if len(fields) < 3 {
				fail("alias line needs two names")
				break
			}
			canon, alias := fields[1], fields[2]
			if alias == canon {
				break
			}
			ch.recs = append(ch.recs, simRec{kind: recAlias, line: int32(line),
				sym: [3]int32{intern(canon), intern(alias)}})
		case "@":
			if len(fields) < 2 {
				fail("directive line needs a keyword")
				break
			}
			switch fields[1] {
			case "in", "out", "precharged":
				var mk uint8
				switch fields[1] {
				case "in":
					mk = markIn
				case "out":
					mk = markOut
				case "precharged":
					mk = markPrecharged
				}
				start := int32(len(ch.lists))
				for _, nm := range fields[2:] {
					ch.lists = append(ch.lists, intern(nm))
				}
				ch.recs = append(ch.recs, simRec{kind: recMark, mark: mk, line: int32(line),
					idx: start, n: int32(len(fields) - 2)})
			case "flow":
				if len(fields) < 4 {
					fail("flow directive needs a direction and a transistor index")
					break
				}
				idx, err := strconv.Atoi(fields[3])
				if err != nil || idx < 0 {
					fail("bad transistor index %q", fields[3])
					break
				}
				// The upper-bound check needs the merged transistor
				// count; an unknown direction is reported after it, so
				// both are deferred with their raw tokens.
				fl := flowUnknown
				switch fields[2] {
				case "a>b":
					fl = FlowAB
				case "b>a":
					fl = FlowBA
				case "off":
					fl = FlowOff
				case "both":
					fl = FlowBoth
				}
				ch.recs = append(ch.recs, simRec{kind: recFlow, line: int32(line),
					flow: fl, idx: int32(idx), tok: fields[3], tok2: fields[2]})
			case "inst":
				if len(fields) < 5 {
					fail("inst directive needs a path and a transistor range")
					break
				}
				lo, err1 := strconv.Atoi(fields[3])
				hi, err2 := strconv.Atoi(fields[4])
				if err1 != nil || err2 != nil || lo < 0 || hi < lo {
					fail("bad instance range %q %q", fields[3], fields[4])
					break
				}
				// The hi <= len(nw.Trans) bound needs the merged transistor
				// count, so it is deferred with the raw tokens.
				ch.recs = append(ch.recs, simRec{kind: recInst, line: int32(line),
					sym: [3]int32{intern(fields[2])}, idx: int32(lo), n: int32(hi),
					tok: fields[3], tok2: fields[4]})
			default:
				fail("unknown directive %q", fields[1])
			}
		default:
			fail("unknown record type %q", key)
		}
		if ch.errLine != 0 {
			break
		}
	}
	ch.lines = line
	return ch
}

// mergeSimChunks replays the tokenized, reconciled chunks, in file
// order, into a fresh network. This is the serial tail of the pipeline:
// alias state, node creation, scale, and error selection all advance here
// exactly as in ReadSim. Names arrive pre-canonicalized (chunk canon
// tables), so the merge itself never interns — the alias table's keys and
// values are canonical strings already.
func mergeSimChunks(name string, p *tech.Params, chunks []*simChunk) (*Network, error) {
	nw := New(name, p)
	aliases := make(map[string]string)
	aliasVer := 0
	scale := 1.0
	startLine := 0
	for _, ch := range chunks {
		// Per-chunk resolution cache: local symbol → node, valid for one
		// alias-table version. Alias lines are rare, so nearly every
		// reference is a single slice load instead of an alias walk plus
		// two map lookups.
		cache := make([]*Node, len(ch.syms))
		cacheVer := aliasVer
		resolve := func(sym int32, line int32) (*Node, error) {
			if cacheVer != aliasVer {
				clear(cache)
				cacheVer = aliasVer
			}
			if n := cache[sym]; n != nil {
				return n, nil
			}
			nm := ch.canon[sym]
			final, ok := followAliases(aliases, nm)
			if !ok {
				return nil, fmt.Errorf("sim %s:%d: alias cycle resolving %q", name, startLine+int(line), nm)
			}
			n := nw.Node(final)
			cache[sym] = n
			return n, nil
		}
		for i := range ch.recs {
			rec := &ch.recs[i]
			switch rec.kind {
			case recScale:
				scale = rec.v1
			case recTrans:
				g, err := resolve(rec.sym[0], rec.line)
				if err != nil {
					return nil, err
				}
				a, err := resolve(rec.sym[1], rec.line)
				if err != nil {
					return nil, err
				}
				b, err := resolve(rec.sym[2], rec.line)
				if err != nil {
					return nil, err
				}
				l, w := p.MinL, p.MinW
				if rec.hasGeom {
					l = rec.v1 * scale * centimicron
					w = rec.v2 * scale * centimicron
				}
				nw.AddTrans(rec.dev, g, a, b, w, l)
			case recResistor:
				a, err := resolve(rec.sym[0], rec.line)
				if err != nil {
					return nil, err
				}
				b, err := resolve(rec.sym[1], rec.line)
				if err != nil {
					return nil, err
				}
				nw.AddResistor(a, b, rec.v1)
			case recCap2:
				a, err := resolve(rec.sym[0], rec.line)
				if err != nil {
					return nil, err
				}
				b, err := resolve(rec.sym[1], rec.line)
				if err != nil {
					return nil, err
				}
				c := rec.v1 * femto
				switch {
				case a.IsRail() && b.IsRail():
					// Rail-to-rail decoupling: irrelevant to timing.
				case a.IsRail():
					nw.AddCap(b, c)
				case b.IsRail():
					nw.AddCap(a, c)
				default:
					nw.AddCap(a, c/2)
					nw.AddCap(b, c/2)
				}
			case recCapN:
				n, err := resolve(rec.sym[0], rec.line)
				if err != nil {
					return nil, err
				}
				nw.AddCap(n, rec.v1*femto)
			case recAlias:
				aliases[ch.canon[rec.sym[1]]] = ch.canon[rec.sym[0]]
				aliasVer++
			case recMark:
				for _, sym := range ch.lists[rec.idx : rec.idx+rec.n] {
					n, err := resolve(sym, rec.line)
					if err != nil {
						return nil, err
					}
					switch rec.mark {
					case markIn:
						nw.MarkInput(n)
					case markOut:
						nw.MarkOutput(n)
					case markPrecharged:
						n.Precharged = true
					}
				}
			case recFlow:
				if int(rec.idx) >= len(nw.Trans) {
					return nil, fmt.Errorf("sim %s:%d: bad transistor index %q", name, startLine+int(rec.line), rec.tok)
				}
				if rec.flow == flowUnknown {
					return nil, fmt.Errorf("sim %s:%d: unknown flow direction %q", name, startLine+int(rec.line), rec.tok2)
				}
				nw.Trans[rec.idx].Flow = rec.flow
			case recInst:
				if int(rec.n) > len(nw.Trans) {
					return nil, fmt.Errorf("sim %s:%d: bad instance range %q %q", name, startLine+int(rec.line), rec.tok, rec.tok2)
				}
				nw.Instances = append(nw.Instances, Instance{
					Path: ch.canon[rec.sym[0]], TransLo: int(rec.idx), TransHi: int(rec.n),
				})
			}
		}
		if ch.errLine != 0 {
			if ch.errTooLong {
				return nil, fmt.Errorf("sim %s: %w", name, bufio.ErrTooLong)
			}
			return nil, fmt.Errorf("sim %s:%d: %s", name, startLine+int(ch.errLine), ch.errMsg)
		}
		startLine += ch.lines
	}
	return nw, nil
}

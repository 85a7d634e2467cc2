package microarch

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// The reference model below is the simulator's earlier timestamp LRU,
// kept as a test oracle for the recency-stack caches: every line
// carries the tick of its last use, a hit scans the whole set, and a
// miss evicts the least recently used line after a second pass that
// prefers an invalid way. The recency stacks must reproduce its
// hit/miss sequence exactly.

type refLine struct {
	tag  uint64
	used uint64
	ok   bool
}

// refCache is the timestamp-LRU set-associative cache.
type refCache struct {
	lines    []refLine
	ways     int
	lineBits uint
	setMask  uint64
	tick     uint64
}

func newRefCache(sets, ways, lineSize int) *refCache {
	return &refCache{
		lines:    make([]refLine, sets*ways),
		ways:     ways,
		lineBits: log2(lineSize),
		setMask:  uint64(sets - 1),
	}
}

func (c *refCache) access(addr uint64) bool {
	c.tick++
	tag := addr >> c.lineBits
	base := int(tag&c.setMask) * c.ways
	set := c.lines[base : base+c.ways]
	victim := 0
	for i := range set {
		if set[i].ok && set[i].tag == tag {
			set[i].used = c.tick
			return true
		}
		if set[i].used < set[victim].used || !set[i].ok && set[victim].ok {
			victim = i
		}
	}
	// Prefer an invalid way.
	for i := range set {
		if !set[i].ok {
			victim = i
			break
		}
	}
	set[victim] = refLine{tag: tag, used: c.tick, ok: true}
	return false
}

// refTLB is the timestamp-LRU fully-associative TLB.
type refTLB struct {
	entries  []refLine
	pageBits uint
	tick     uint64
}

func newRefTLB(entries, pageSize int) *refTLB {
	return &refTLB{entries: make([]refLine, entries), pageBits: log2(pageSize)}
}

func (t *refTLB) access(addr uint64) bool {
	t.tick++
	tag := addr >> t.pageBits
	victim := 0
	for i := range t.entries {
		e := &t.entries[i]
		if e.ok && e.tag == tag {
			e.used = t.tick
			return true
		}
		if !e.ok {
			victim = i
		} else if t.entries[victim].ok && e.used < t.entries[victim].used {
			victim = i
		}
	}
	t.entries[victim] = refLine{tag: tag, used: t.tick, ok: true}
	return false
}

// refHierarchy wires the reference structures together the way
// Hierarchy does. Its Fetch walks the lines by bytes left to fetch, an
// independent formulation of Hierarchy.Fetch's line count.
type refHierarchy struct {
	cfg           Config
	l1i, l1d, llc *refCache
	itlb, dtlb    *refTLB
	bp            *predictor
	stats         Stats
}

func newRefHierarchy(cfg Config) *refHierarchy {
	cfg = cfg.Normalize()
	return &refHierarchy{
		cfg:  cfg,
		l1i:  newRefCache(cfg.L1ISets, cfg.L1IWays, cfg.LineSize),
		l1d:  newRefCache(cfg.L1DSets, cfg.L1DWays, cfg.LineSize),
		llc:  newRefCache(cfg.LLCSets, cfg.LLCWays, cfg.LineSize),
		itlb: newRefTLB(cfg.ITLBEntries, cfg.PageSize),
		dtlb: newRefTLB(cfg.DTLBEntries, cfg.PageSize),
		bp:   newPredictor(cfg.BPTableBits),
	}
}

// lower runs one L1 miss through the LLC.
func (r *refHierarchy) lower(addr uint64) int {
	r.stats.LLCAccs++
	if r.llc.access(addr) {
		return r.cfg.L1MissPenalty
	}
	r.stats.LLCMisses++
	return r.cfg.LLCMissPenalty
}

func (r *refHierarchy) Fetch(addr uint64, size int) int {
	penalty := 0
	line := uint64(r.cfg.LineSize)
	a := addr &^ (line - 1)
	for left := int64(addr-a) + int64(size); left > 0; left -= int64(line) {
		r.stats.Fetches++
		r.stats.ITLBAccs++
		if !r.itlb.access(a) {
			r.stats.ITLBMisses++
			penalty += r.cfg.TLBMissPenalty
		}
		if !r.l1i.access(a) {
			r.stats.L1IMisses++
			penalty += r.lower(a)
		}
		a += line
	}
	return penalty
}

func (r *refHierarchy) Data(addr uint64) int {
	penalty := 0
	r.stats.DataAccs++
	r.stats.DTLBAccs++
	if !r.dtlb.access(addr) {
		r.stats.DTLBMisses++
		penalty += r.cfg.TLBMissPenalty
	}
	if !r.l1d.access(addr) {
		r.stats.L1DMisses++
		penalty += r.lower(addr)
	}
	return penalty
}

func (r *refHierarchy) Branch(pc uint64, taken bool) int {
	r.stats.Branches++
	if !r.bp.predict(pc, taken) {
		r.stats.BranchMiss++
		return r.cfg.BranchMissPenalty
	}
	return 0
}

// addrMix generates n addresses for a structure of the given geometry
// (sets × ways, blk bytes per line or page).
type addrMix func(rng *rand.Rand, sets, ways, blk, n int) []uint64

var addrMixes = map[string]addrMix{
	// reuse: a skewed pick from twice the structure's capacity, so a
	// few hot lines hit and the tail cycles through.
	"reuse": func(rng *rand.Rand, sets, ways, blk, n int) []uint64 {
		pool := 2 * sets * ways
		out := make([]uint64, n)
		for i := range out {
			line := rng.Intn(rng.Intn(pool) + 1)
			out[i] = uint64(line*blk + rng.Intn(blk))
		}
		return out
	},
	// conflict: a few more lines than ways, all in one or two sets.
	"conflict": func(rng *rand.Rand, sets, ways, blk, n int) []uint64 {
		stride := uint64(sets * blk)
		out := make([]uint64, n)
		for i := range out {
			out[i] = uint64(rng.Intn(ways+3))*stride + uint64(rng.Intn(2)*blk)
		}
		return out
	},
	// scan: sequential sweeps over a little more than the capacity,
	// the LRU wraparound pathology.
	"scan": func(rng *rand.Rand, sets, ways, blk, n int) []uint64 {
		span := sets*ways + 1 + rng.Intn(sets+1)
		out := make([]uint64, n)
		for i := range out {
			out[i] = uint64((i % span) * blk)
		}
		return out
	},
	// wide: a small pool of full 64-bit addresses, including the top
	// of the address space, where an empty-way sentinel would collide.
	"wide": func(rng *rand.Rand, sets, ways, blk, n int) []uint64 {
		pool := make([]uint64, sets*ways+4)
		for i := range pool {
			pool[i] = rng.Uint64()
		}
		pool[0], pool[1] = ^uint64(0), 0
		out := make([]uint64, n)
		for i := range out {
			out[i] = pool[rng.Intn(len(pool))]
		}
		return out
	},
}

// TestCacheMatchesReference feeds seeded address streams through a
// recency-stack cache and the timestamp-LRU reference of the same
// geometry (and a one-set cache against the reference TLB) and requires
// identical hit/miss sequences.
func TestCacheMatchesReference(t *testing.T) {
	type geom struct{ sets, ways, blk int }
	var caches, tlbs []geom
	for _, ways := range []int{1, 2, 8, 16} {
		for _, sets := range []int{1, 4, 64} {
			for _, line := range []int{1, 64} {
				caches = append(caches, geom{sets, ways, line})
			}
		}
	}
	for _, entries := range []int{1, 2, 64} {
		for _, page := range []int{1, 4096} {
			tlbs = append(tlbs, geom{1, entries, page})
		}
	}
	const n = 20_000
	for name, mix := range addrMixes {
		for i, g := range caches {
			rng := rand.New(rand.NewSource(int64(i) + 1))
			got, want := newCache(g.sets, g.ways, g.blk), newRefCache(g.sets, g.ways, g.blk)
			for j, a := range mix(rng, g.sets, g.ways, g.blk, n) {
				if h, r := got.access(a), want.access(a); h != r {
					t.Fatalf("%s cache %+v: access %d (%#x) hit=%v, reference %v", name, g, j, a, h, r)
				}
			}
		}
		for i, g := range tlbs {
			rng := rand.New(rand.NewSource(int64(i) + 100))
			got, want := newCache(1, g.ways, g.blk), newRefTLB(g.ways, g.blk)
			for j, a := range mix(rng, 1, g.ways, g.blk, n) {
				if h, r := got.access(a), want.access(a); h != r {
					t.Fatalf("%s TLB %+v: access %d (%#x) hit=%v, reference %v", name, g, j, a, h, r)
				}
			}
		}
	}
}

// checkAgainstReference runs accs through a Hierarchy and the reference
// model event by event and fails on the first differing penalty or on
// differing final Stats.
func checkAgainstReference(t *testing.T, cfg Config, accs []Access) {
	t.Helper()
	h, r := New(cfg), newRefHierarchy(cfg)
	for i, a := range accs {
		var got, want int
		switch a.Kind {
		case AccessFetch:
			got, want = h.Fetch(a.Addr, int(a.Aux)), r.Fetch(a.Addr, int(a.Aux))
		case AccessData:
			got, want = h.Data(a.Addr), r.Data(a.Addr)
		default:
			got, want = h.Branch(a.Addr, a.Aux != 0), r.Branch(a.Addr, a.Aux != 0)
		}
		if got != want {
			t.Fatalf("event %d %+v: penalty %d, reference %d", i, a, got, want)
		}
	}
	if h.Stats() != r.stats {
		t.Fatalf("stats diverged:\n got %+v\nwant %+v", h.Stats(), r.stats)
	}
}

// TestHierarchyMatchesReference compares whole hierarchies, L1/LLC
// ways 1, 2, 8 and 16 against TLBs of 1 and 64 entries at line/page
// sizes of 1/1 and 64/4096, on interleaved fetch, data and branch
// streams drawn from every address mix.
func TestHierarchyMatchesReference(t *testing.T) {
	for _, ways := range []int{1, 2, 8, 16} {
		for _, entries := range []int{1, 64} {
			for _, sizes := range [][2]int{{1, 1}, {64, 4096}} {
				cfg := DefaultConfig()
				cfg.L1ISets, cfg.L1DSets, cfg.LLCSets = 8, 8, 32
				cfg.L1IWays, cfg.L1DWays, cfg.LLCWays = ways, ways, ways
				cfg.ITLBEntries, cfg.DTLBEntries = entries, entries
				cfg.LineSize, cfg.PageSize = sizes[0], sizes[1]
				for name, mix := range addrMixes {
					t.Run(fmt.Sprintf("ways%d/tlb%d/line%d/%s", ways, entries, sizes[0], name), func(t *testing.T) {
						rng := rand.New(rand.NewSource(int64(ways*1000 + entries)))
						addrs := mix(rng, cfg.LLCSets, ways, cfg.LineSize, 5000)
						accs := make([]Access, len(addrs))
						for i, a := range addrs {
							kind := AccessKind(rng.Intn(3))
							aux := uint32(rng.Intn(2))
							if kind == AccessFetch {
								aux = uint32(rng.Intn(4 * cfg.LineSize))
							}
							accs[i] = Access{Addr: a, Aux: aux, Kind: kind}
						}
						checkAgainstReference(t, cfg, accs)
					})
				}
			}
		}
	}
}

// TestEmptyWayMatchesNoTag is the regression pin for marking empty
// ways with a sentinel tag: at LineSize = PageSize = 1 the address
// ^uint64(0) has the all-ones tag, so a sentinel of ^uint64(0) would
// count its first access as a hit. Every structure must miss it cold.
func TestEmptyWayMatchesNoTag(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LineSize, cfg.PageSize = 1, 1
	const top = ^uint64(0)

	h := New(cfg)
	h.Fetch(top, 1)
	s := h.Stats()
	if s.Fetches != 1 || s.ITLBMisses != 1 || s.L1IMisses != 1 || s.LLCMisses != 1 {
		t.Fatalf("cold fetch of %#x: %+v, want one fetch missing the I-TLB, L1I and LLC", top, s)
	}
	if h.Fetch(top, 1) != 0 {
		t.Fatalf("warm fetch of %#x paid a penalty", top)
	}

	h = New(cfg)
	h.Data(top)
	s = h.Stats()
	if s.DataAccs != 1 || s.DTLBMisses != 1 || s.L1DMisses != 1 || s.LLCMisses != 1 {
		t.Fatalf("cold data access of %#x: %+v, want one access missing the D-TLB, L1D and LLC", top, s)
	}
	if h.Data(top) != 0 {
		t.Fatalf("warm data access of %#x paid a penalty", top)
	}
}

// fuzzStream decodes fuzz bytes into a small hierarchy geometry and an
// access stream. The first two bytes pick ways, sets, TLB entries and
// line/page sizes; every further 3 bytes are one event whose address
// is a 16-bit value read as a small address, a conflict-stride
// multiple, an offset below the top of the address space, or a wide
// 64-bit pattern.
func fuzzStream(data []byte) (Config, []Access) {
	cfg := DefaultConfig()
	if len(data) >= 2 {
		ways := 1 + int(data[0]&15)
		sets := 1 << (data[0] >> 4 & 3)
		cfg.L1IWays, cfg.L1DWays, cfg.LLCWays = ways, ways, ways
		cfg.L1ISets, cfg.L1DSets, cfg.LLCSets = sets, sets, 2*sets
		cfg.ITLBEntries = 1 + int(data[1]&31)
		cfg.DTLBEntries = 1 + int(data[1]>>5&7)
		if data[1]&0x80 != 0 {
			cfg.LineSize, cfg.PageSize = 1, 1
		}
		data = data[2:]
	}
	stride := uint64(cfg.LLCSets * cfg.LineSize)
	var accs []Access
	for ; len(data) >= 3; data = data[3:] {
		op := data[0]
		v := uint64(binary.LittleEndian.Uint16(data[1:]))
		var addr uint64
		switch op >> 2 & 3 {
		case 0:
			addr = v
		case 1:
			addr = v * stride
		case 2:
			addr = ^uint64(0) - v
		default:
			addr = v<<48 | v<<24 | v
		}
		switch op & 3 {
		case 0:
			accs = append(accs, Access{Addr: addr, Aux: uint32(op>>4) * 16, Kind: AccessFetch})
		case 1:
			accs = append(accs, Access{Addr: addr, Kind: AccessData})
		default:
			accs = append(accs, Access{Addr: addr, Aux: uint32(op >> 4 & 1), Kind: AccessBranch})
		}
	}
	return cfg, accs
}

// FuzzHierarchyMatchesReference turns fuzz bytes into a geometry and an
// access stream and requires the recency-stack hierarchy to charge the
// same penalty as the timestamp-LRU reference on every event and to end
// with the same Stats. Seeds are in testdata/fuzz/FuzzHierarchyMatchesReference.
func FuzzHierarchyMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, accs := fuzzStream(data)
		checkAgainstReference(t, cfg, accs)
	})
}

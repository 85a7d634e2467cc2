package microarch

import (
	"math/rand"
	"testing"
)

// pickSkewed returns a value below 90% of the time hot, 9% warm and 1%
// cold, uniformly within that range.
func pickSkewed(rng *rand.Rand, hot, warm, cold int) int {
	switch r := rng.Intn(100); {
	case r < 90:
		return rng.Intn(hot)
	case r < 99:
		return rng.Intn(warm)
	default:
		return rng.Intn(cold)
	}
}

// benchStream is a fixed, seeded stream of about 10k events shaped like
// executed translations. Each call runs a 4-block function picked from
// 16 hot, 256 warm or 1024 cold ones (1 MiB of code); each block is a
// 16-255 byte fetch, up to two data accesses into a 16 KiB hot heap,
// 1 MiB warm or 8 MiB cold, and a branch whose outcome is fixed per
// block but for one flip in twenty.
func benchStream() []Access {
	rng := rand.New(rand.NewSource(1))
	const codeBase = 0x40_0000
	var accs []Access
	for len(accs) < 10_000 {
		fn := pickSkewed(rng, 16, 256, 1024)
		for blk := fn * 4; blk < fn*4+4; blk++ {
			pc := codeBase + uint64(blk)*256
			accs = append(accs, Access{Addr: pc, Aux: uint32(16 + rng.Intn(240)), Kind: AccessFetch})
			for d := rng.Intn(3); d > 0; d-- {
				off := pickSkewed(rng, 16<<10, 1<<20, 8<<20)
				accs = append(accs, Access{Addr: uint64(off) &^ 7, Kind: AccessData})
			}
			taken := blk%3 != 0 != (rng.Intn(20) == 0)
			accs = append(accs, Access{Addr: pc + 12, Aux: uint32(b2u(taken)), Kind: AccessBranch})
		}
	}
	return accs
}

// BenchmarkStream measures the simulator's cost per event on the default
// hierarchy: run with -benchmem and read ns/event. Code stays put across
// iterations while the data base moves on, as a growing heap does, so
// each pass takes cold data misses through the L1D, LLC and D-TLB.
func BenchmarkStream(b *testing.B) {
	const dataBase = 0x7f00_0000_0000
	accs := benchStream()
	h := New(DefaultConfig())
	h.Stream(accs, dataBase)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Stream(accs, dataBase+uint64(i+1)<<24)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(accs)), "ns/event")
}

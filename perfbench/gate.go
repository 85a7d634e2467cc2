package main

import (
	"fmt"
	"hash"
	"hash/fnv"

	"jumpstart/internal/workload"
)

// defaultSeed is the seed the repository's configurations ship with.
// Runs at this seed must reproduce referenceHash exactly.
var defaultSeed = workload.DefaultSiteConfig().Seed

// referenceHash is each workload's output hash at defaultSeed,
// recorded when the benchmark was defined. A change that alters a
// simulated result at the default seed fails the gate.
var referenceHash = map[string]string{
	"warmup":  "49aa0ee30038b4d0",
	"steady":  "4ded509df7e315ed",
	"fleet":   "975d089b14cf3b74",
	"figures": "61a5556604fbe7ba",
}

// gate counts attempted and failed operations: every checked output,
// every invariant and every returned error is one attempt.
type gate struct {
	attempted, failed int
	notes             []string
}

// check records one attempted check, failing when ok is false.
func (g *gate) check(ok bool, format string, args ...any) {
	g.attempted++
	if !ok {
		g.failed++
		g.notes = append(g.notes, fmt.Sprintf(format, args...))
	}
}

// op records an operation that may have returned an error. A nil err
// is a successful attempt.
func (g *gate) op(err error) {
	g.check(err == nil, "error: %v", err)
}

// failFrac is the share of attempts that failed.
func (g *gate) failFrac() float64 {
	if g.attempted == 0 {
		return 0
	}
	return float64(g.failed) / float64(g.attempted)
}

// digest hashes a pass's simulated outputs.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{h: fnv.New64a()} }

// add writes one formatted record into the hash.
func (d *digest) add(format string, args ...any) {
	fmt.Fprintf(d.h, format, args...)
	d.h.Write([]byte{'\n'})
}

func (d *digest) sum() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

// checkHash compares one pass's output hash with the first pass of the
// run and, at the default seed, with the recorded reference.
func (g *gate) checkHash(name string, seed uint64, first, got string) {
	g.check(got == first, "%s: pass hash %s differs from first pass %s", name, got, first)
	if seed == defaultSeed {
		want := referenceHash[name]
		g.check(got == want, "%s: hash %s at default seed, reference %s", name, got, want)
	}
}

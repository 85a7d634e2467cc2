//go:build race

package transport

// raceEnabled skips the allocation ceiling: the race detector makes
// sync.Pool drop a random share of Puts, so pooled decompressors are
// rebuilt and per-fetch garbage no longer reflects the real path.
const raceEnabled = true

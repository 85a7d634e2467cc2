// Package transport moves profile-data packages between the store and
// the fleet over a network — the real one (HTTP, for the two-process
// jumpstartd handoff) or the simulated one (internal/netsim, for fleet
// experiments). Figure 3's workflows assume this hop: seeders upload
// packages after collection, consumers download one at boot, and
// Section VI's reliability story only matters because that hop can
// misbehave.
//
// The wire protocol is chunked, checksummed and gzip-compressed:
// a manifest names a picked package and the content addresses (FNV-1a
// hashes) of its fixed-size chunks; chunks travel gzip-compressed and
// are verified against their address on arrival. Because chunks are
// content-addressed, a retry after a mid-transfer failure re-fetches
// only the chunks it is missing — transfers resume, they never
// restart. The client layers per-RPC timeouts, capped exponential
// backoff with deterministic jitter, and a per-fetch deadline budget
// on top; when the budget is exhausted the failure surfaces as a
// BootInfo.FallbackReason and the consumer takes the ordinary
// no-Jump-Start fallback instead of crashing (Section VI-A3).
package transport

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"sync"

	"jumpstart/internal/jumpstart"
)

// DefaultChunkSize is the package chunking granularity when the server
// is built with a non-positive chunk size.
const DefaultChunkSize = 16 << 10

// Protocol errors. Timeout/RPC/BadChunk are retryable within the
// fetch budget; NoPackage and Budget are terminal for the attempt and
// turn into the consumer's fallback reason.
var (
	// ErrNoPackage means the store had no (non-excluded) package for
	// the requested (region, bucket).
	ErrNoPackage = errors.New("transport: no package available")
	// ErrTimeout means an RPC was dropped by the network and the
	// client waited out its per-RPC timeout.
	ErrTimeout = errors.New("transport: rpc timed out")
	// ErrRPC means the far end answered with a failure.
	ErrRPC = errors.New("transport: rpc failed")
	// ErrBadChunk means a chunk failed decompression or content-hash
	// verification.
	ErrBadChunk = errors.New("transport: chunk failed verification")
	// ErrBudget means the per-fetch deadline budget ran out.
	ErrBudget = errors.New("transport: fetch budget exhausted")
)

// Manifest describes one picked package: its identity, full-payload
// checksum, and the content addresses of its chunks in order.
type Manifest struct {
	ID     jumpstart.PackageID `json:"id"`
	Region int                 `json:"region"`
	Bucket int                 `json:"bucket"`
	// Revision is the build checksum the package was collected
	// against (0 from pre-revision publishers). Carried on the
	// manifest so a consumer can check compatibility before spending
	// its fetch budget on chunks.
	Revision  uint64   `json:"revision"`
	Size      int      `json:"size"`
	CRC32     uint32   `json:"crc32"`
	ChunkSize int      `json:"chunk_size"`
	Chunks    []uint64 `json:"chunks"` // FNV-1a 64 content addresses
}

// chunkHash is the content address of one uncompressed chunk.
func chunkHash(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// chunkBounds returns the [lo, hi) byte range of chunk idx.
func chunkBounds(size, chunkSize, idx int) (int, int, error) {
	lo := idx * chunkSize
	if idx < 0 || lo >= size {
		return 0, 0, fmt.Errorf("%w: chunk %d out of range", ErrRPC, idx)
	}
	hi := lo + chunkSize
	if hi > size {
		hi = size
	}
	return lo, hi, nil
}

// manifestFor chunks a stored package.
func manifestFor(p *jumpstart.StoredPackage, chunkSize int) *Manifest {
	m := &Manifest{
		ID:        p.ID,
		Region:    p.Region,
		Bucket:    p.Bucket,
		Revision:  p.Revision,
		Size:      len(p.Data),
		CRC32:     crc32.ChecksumIEEE(p.Data),
		ChunkSize: chunkSize,
	}
	for lo := 0; lo < len(p.Data); lo += chunkSize {
		hi := lo + chunkSize
		if hi > len(p.Data) {
			hi = len(p.Data)
		}
		m.Chunks = append(m.Chunks, chunkHash(p.Data[lo:hi]))
	}
	return m
}

// compressChunk gzips one chunk for the wire.
func compressChunk(b []byte) []byte {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(b)
	zw.Close()
	return buf.Bytes()
}

// gzipReaders recycles chunk decompressors: a gzip.Reader carries a
// 32 KiB inflate window, far more than the chunks it inflates, and Reset
// reinitialises every bit of per-stream state.
var gzipReaders sync.Pool

// decompressChunk inflates a wire chunk, refusing to inflate past
// maxLen (a corrupt or malicious chunk must not OOM a consumer, same
// rule as prof.Decode).
func decompressChunk(wire []byte, maxLen int) ([]byte, error) {
	zr, ok := gzipReaders.Get().(*gzip.Reader)
	if !ok {
		zr = new(gzip.Reader)
	}
	defer gzipReaders.Put(zr)
	if err := zr.Reset(bytes.NewReader(wire)); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadChunk, err)
	}
	out, err := io.ReadAll(io.LimitReader(zr, int64(maxLen)+1))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadChunk, err)
	}
	if len(out) > maxLen {
		return nil, fmt.Errorf("%w: chunk inflates past %d bytes", ErrBadChunk, maxLen)
	}
	return out, nil
}

package transport

import (
	"bytes"
	"errors"
	"testing"

	"jumpstart/internal/jumpstart"
	"jumpstart/internal/netsim"
)

// FuzzDecompressChunk feeds arbitrary wire bytes to the chunk inflater.
// It must never panic, never return more than maxLen bytes, fail only
// with ErrBadChunk, and leave the reader pool fit to decode a valid
// chunk afterwards.
func FuzzDecompressChunk(f *testing.F) {
	// Seeds built by the compressor live here; hand-written malformed
	// streams are in testdata/fuzz/FuzzDecompressChunk.
	valid := testPayload(512, 30)
	wire := compressChunk(valid)
	f.Add(wire, uint16(512))
	f.Add(wire, uint16(100))
	f.Add(wire[:len(wire)/2], uint16(512))
	f.Add(append(compressChunk([]byte("a")), compressChunk([]byte("b"))...), uint16(512))
	f.Add(compressChunk(make([]byte, 60_000)), uint16(512))
	f.Fuzz(func(t *testing.T, wire []byte, maxLen uint16) {
		out, err := decompressChunk(wire, int(maxLen))
		if err != nil && !errors.Is(err, ErrBadChunk) {
			t.Fatalf("error %v is not ErrBadChunk", err)
		}
		if len(out) > int(maxLen) {
			t.Fatalf("inflated %d bytes past the %d bound", len(out), maxLen)
		}
		got, err := decompressChunk(compressChunk(valid), len(valid))
		if err != nil || !bytes.Equal(got, valid) {
			t.Fatalf("valid chunk after fuzz input: err %v, equal %v", err, bytes.Equal(got, valid))
		}
	})
}

// fixedManifestConn answers every Manifest RPC with one manifest and
// every Chunk RPC with a chunk of zeros of the manifest's chunk size,
// capped so a hostile size cannot allocate without bound.
type fixedManifestConn struct{ m *Manifest }

func (c fixedManifestConn) Manifest(int, int, uint64, []jumpstart.PackageID) (*Manifest, error) {
	return c.m, nil
}

func (c fixedManifestConn) Chunk(jumpstart.PackageID, int) ([]byte, error) {
	return compressChunk(make([]byte, min(c.m.ChunkSize, 1<<16))), nil
}

func (c fixedManifestConn) Publish(int, int, uint64, []byte) (jumpstart.PackageID, error) {
	return 0, ErrRPC
}

// FuzzManifest decodes arbitrary bytes the way HTTPConn decodes a
// manifest response, then hands the result to the client's full fetch
// and page-in paths. Whatever the manifest claims, the client must
// fail cleanly or succeed with a payload that matches it — never panic.
// Seeds are in testdata/fuzz/FuzzManifest.
func FuzzManifest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		m, err := decodeManifest(body)
		if err != nil {
			if !errors.Is(err, ErrRPC) {
				t.Fatalf("decode error %v is not ErrRPC", err)
			}
			return
		}
		clock := netsim.NewVirtualClock(0)
		cli := NewClient(fixedManifestConn{m}, clock, ClientConfig{Budget: 2})
		res, err := cli.Fetch(0, 0, 1, nil)
		if err == nil && (checkManifest(m) != nil || len(res.Data) != m.Size) {
			t.Fatalf("fetch accepted manifest %+v", m)
		}
		if len(m.Chunks) > 0 {
			cli.FetchChunk(m, 0)
		}
	})
}

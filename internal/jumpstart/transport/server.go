package transport

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"jumpstart/internal/jumpstart"
	"jumpstart/internal/telemetry"
)

// maxPublishBytes bounds an uploaded package body (a misbehaving
// seeder must not OOM the store).
const maxPublishBytes = 64 << 20

// Server fronts a jumpstart.Store with the chunked package protocol.
// It is used two ways: directly (method calls) by the simulated
// network's SimConn, and over HTTP via Handler for the real
// two-process jumpstartd deployment.
//
// A package's wire form (its manifest and gzip chunks) is a pure
// function of its immutable bytes, and thousands of consumers fetch
// the same few packages, so the server builds it once per package on
// first request and serves every later RPC from that memo. The store
// stays the source of truth: every RPC still resolves the package
// through Pick/Get, so a removed package errors and its entry is
// dropped.
type Server struct {
	store     *jumpstart.Store
	chunkSize int

	mu   sync.Mutex
	wire map[jumpstart.PackageID]*wirePackage

	// tel/clock observe RPC traffic; telemetry never alters behavior.
	tel   *telemetry.Set
	clock func() float64
}

// NewServer builds a store server (chunkSize <= 0 selects
// DefaultChunkSize).
func NewServer(store *jumpstart.Store, chunkSize int) *Server {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	return &Server{store: store, chunkSize: chunkSize,
		wire: make(map[jumpstart.PackageID]*wirePackage)}
}

// wirePackage is the memoised wire form of one stored package. Both
// fields are shared by every RPC that serves the package and must
// never be written after construction.
type wirePackage struct {
	man    *Manifest
	chunks [][]byte // compressChunk of each chunk, in manifest order
}

// wireFor returns p's wire form, building it on first use. Package
// IDs are never reused within a Store and published bytes never
// change, so an entry can only go stale by removal, which Chunk
// handles. The build runs outside s.mu so requests for other packages
// never wait on it; two racing builds of one package produce the same
// bytes, and the first to be inserted wins.
func (s *Server) wireFor(p *jumpstart.StoredPackage) *wirePackage {
	s.mu.Lock()
	w, ok := s.wire[p.ID]
	s.mu.Unlock()
	if ok {
		return w
	}
	w = &wirePackage{man: manifestFor(p, s.chunkSize)}
	w.chunks = make([][]byte, len(w.man.Chunks))
	for i := range w.chunks {
		lo, hi, _ := chunkBounds(len(p.Data), s.chunkSize, i)
		w.chunks[i] = compressChunk(p.Data[lo:hi])
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.wire[p.ID]; ok {
		return prev
	}
	s.wire[p.ID] = w
	return w
}

// Store returns the backing package store.
func (s *Server) Store() *jumpstart.Store { return s.store }

// SetTelemetry installs the observation set and virtual clock for
// server-side RPC events. Either may be nil.
func (s *Server) SetTelemetry(tel *telemetry.Set, clock func() float64) {
	s.tel = tel
	s.clock = clock
}

func (s *Server) now() float64 {
	if s.clock == nil {
		return 0
	}
	return s.clock()
}

// Manifest picks a package for (region, bucket) with the given random
// value and exclusion list, and returns its chunk manifest. The
// manifest is shared with every other caller and must not be modified.
func (s *Server) Manifest(region, bucket int, rnd uint64, exclude []jumpstart.PackageID) (*Manifest, error) {
	p, ok := s.store.Pick(region, bucket, rnd, exclude...)
	if !ok {
		s.tel.Counter("transport.server.no_package_total").Inc()
		return nil, ErrNoPackage
	}
	s.tel.Counter("transport.server.manifests_total").Inc()
	return s.wireFor(p).man, nil
}

// Chunk returns the gzip-compressed bytes of chunk idx of package id.
// The returned slice is shared with every other caller and must not be
// modified.
func (s *Server) Chunk(id jumpstart.PackageID, idx int) ([]byte, error) {
	p, ok := s.store.Get(id)
	if !ok {
		s.mu.Lock()
		delete(s.wire, id)
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: package %d not found", ErrRPC, id)
	}
	w := s.wireFor(p)
	if idx < 0 || idx >= len(w.chunks) {
		return nil, fmt.Errorf("%w: chunk %d out of range", ErrRPC, idx)
	}
	s.tel.Counter("transport.server.chunks_total").Inc()
	return w.chunks[idx], nil
}

// Publish stores an uploaded package, stamped with the publisher's
// build revision checksum, and returns its id.
func (s *Server) Publish(region, bucket int, revision uint64, data []byte) jumpstart.PackageID {
	s.tel.Counter("transport.server.publishes_total").Inc()
	return s.store.PublishRevision(region, bucket, data, revision)
}

// Handler returns the HTTP surface of the protocol:
//
//	GET  /manifest?region=R&bucket=B&rnd=N&exclude=1,2  -> Manifest JSON (404 when none)
//	GET  /chunk?id=I&idx=K                              -> gzip chunk bytes
//	POST /publish?region=R&bucket=B&rev=C               -> {"id": N}
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/manifest", s.handleManifest)
	mux.HandleFunc("/chunk", s.handleChunk)
	mux.HandleFunc("/publish", s.handlePublish)
	return mux
}

func queryInt(r *http.Request, key string) (int, error) {
	v, err := strconv.Atoi(r.URL.Query().Get(key))
	if err != nil {
		return 0, fmt.Errorf("bad %s: %v", key, err)
	}
	return v, nil
}

func (s *Server) handleManifest(w http.ResponseWriter, r *http.Request) {
	region, err := queryInt(r, "region")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	bucket, err := queryInt(r, "bucket")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	rnd, err := strconv.ParseUint(r.URL.Query().Get("rnd"), 10, 64)
	if err != nil {
		http.Error(w, "bad rnd: "+err.Error(), http.StatusBadRequest)
		return
	}
	var exclude []jumpstart.PackageID
	if ex := r.URL.Query().Get("exclude"); ex != "" {
		for _, part := range strings.Split(ex, ",") {
			id, err := strconv.ParseInt(part, 10, 64)
			if err != nil {
				http.Error(w, "bad exclude: "+err.Error(), http.StatusBadRequest)
				return
			}
			exclude = append(exclude, jumpstart.PackageID(id))
		}
	}
	m, err := s.Manifest(region, bucket, rnd, exclude)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(m)
}

func (s *Server) handleChunk(w http.ResponseWriter, r *http.Request) {
	id, err := queryInt(r, "id")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	idx, err := queryInt(r, "idx")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	wire, err := s.Chunk(jumpstart.PackageID(id), idx)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(wire)
}

func (s *Server) handlePublish(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "publish requires POST", http.StatusMethodNotAllowed)
		return
	}
	region, err := queryInt(r, "region")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	bucket, err := queryInt(r, "bucket")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var revision uint64
	if rev := r.URL.Query().Get("rev"); rev != "" {
		revision, err = strconv.ParseUint(rev, 10, 64)
		if err != nil {
			http.Error(w, "bad rev: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, maxPublishBytes+1))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(data) > maxPublishBytes {
		http.Error(w, "package too large", http.StatusRequestEntityTooLarge)
		return
	}
	id := s.Publish(region, bucket, revision, data)
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"id\":%d}\n", id)
}

package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"jumpstart/internal/cluster"
	"jumpstart/internal/experiments"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}, {1 << 20, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestTailReportsChosenPercentile(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	p50, tv, pct := tail(xs)
	if p50 != 100.5 || pct != 95 || tv != quantile(xs, 0.95) {
		t.Fatalf("tail = %v, %v, %v; want 100.5, p95, 95", p50, tv, pct)
	}
	// Exactly ten samples lie above the p95 of 200.
	beyond := 0
	for _, x := range xs {
		if x > tv {
			beyond++
		}
	}
	if beyond != 10 {
		t.Fatalf("%d samples beyond the tail, want 10", beyond)
	}
}

func TestGateCountsMismatchAndError(t *testing.T) {
	g := &gate{}
	g.checkHash("warmup", defaultSeed, referenceHash["warmup"], referenceHash["warmup"])
	if g.failed != 0 || g.attempted != 2 {
		t.Fatalf("matching hash: %d of %d failed", g.failed, g.attempted)
	}
	g.checkHash("warmup", defaultSeed, referenceHash["warmup"], "0123456789abcdef")
	if g.failed != 2 || g.attempted != 4 {
		t.Fatalf("mismatched hash: %d of %d failed, want 2 of 4", g.failed, g.attempted)
	}
	g.op(nil)
	g.op(errors.New("boom"))
	if g.failed != 3 || g.attempted != 6 {
		t.Fatalf("after one error: %d of %d failed, want 3 of 6", g.failed, g.attempted)
	}
	if got := g.failFrac(); got != 0.5 {
		t.Fatalf("failFrac = %v, want 0.5", got)
	}
	// Away from the default seed only run-internal agreement is checked.
	g2 := &gate{}
	g2.checkHash("warmup", defaultSeed+1, "aa", "aa")
	if g2.attempted != 1 || g2.failed != 0 {
		t.Fatalf("other seed: %d of %d failed, want 0 of 1", g2.failed, g2.attempted)
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 20 * ms, End: 50 * ms},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90 * ms, End: 120 * ms}, // runs past the root
		{ID: 5, Parent: 3, Name: "d", Start: 25 * ms, End: 35 * ms},
	}
	self := selfTimes(spans)
	// Root: children cover [10,50) and [90,100) = 50 ms.
	for id, want := range map[uint64]time.Duration{1: 50 * ms, 2: 20 * ms, 3: 20 * ms, 4: 30 * ms, 5: 10 * ms} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	secs := selfByName(append(spans, Span{ID: 6, Name: "a", Start: 0, End: 5 * ms}))
	if math.Abs(secs["a"]-0.025) > 1e-12 || math.Abs(secs["root"]-0.05) > 1e-12 {
		t.Errorf("self seconds by name = %v; want a 0.025, root 0.05", secs)
	}
}

func TestTracerNestsAndNilIsNoop(t *testing.T) {
	var none *tracer
	none.begin("x")()
	tr := newTracer("run")
	endA := tr.begin("a")
	endB := tr.begin("b")
	endB()
	endA()
	tr.begin("c")()
	if len(tr.spans) != 3 || tr.spans[1].Parent != tr.spans[0].ID || tr.spans[2].Parent != 0 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	for _, s := range tr.spans {
		if s.Run != "run" || s.End < s.Start {
			t.Fatalf("bad span %+v", s)
		}
	}
}

func TestSeedReachesSiteAndFleet(t *testing.T) {
	for _, name := range workloadNames {
		_, cfg, err := newBench(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.SiteCfg.Seed != 7 || cfg.FleetCfg.Seed != 7 || cfg.Workers != 1 || cfg.FleetCfg.Workers != 1 {
			t.Fatalf("%s: site seed %d, fleet seed %d, workers %d/%d", name,
				cfg.SiteCfg.Seed, cfg.FleetCfg.Seed, cfg.Workers, cfg.FleetCfg.Workers)
		}
		l := &lab{Lab: &experiments.Lab{Cfg: cfg}}
		if fc := fleetConfig(l, [2]cluster.WarmupCurve{}); fc.Seed != 7 || fc.Workers != 1 {
			t.Fatalf("%s: fleet config seed %d, workers %d", name, fc.Seed, fc.Workers)
		}
	}
	if _, _, err := newBench("nope", 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// tinyConfig is a small warmup configuration for tests.
func tinyConfig(seed uint64) experiments.Config {
	cfg := labConfig(experiments.Quick(), seed)
	cfg.SiteCfg.Units = 4
	cfg.Horizon, cfg.LongHorizon = 120, 240
	return cfg
}

func TestDifferentSeedGivesDifferentHash(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two small warmup passes")
	}
	hashes := map[uint64]string{}
	for _, seed := range []uint64{1, 2} {
		b := &warmupBench{base: tinyConfig(seed)}
		if err := b.setup(nil); err != nil {
			t.Fatal(err)
		}
		g := &gate{}
		out, err := b.pass(nil, g)
		if err != nil {
			t.Fatal(err)
		}
		if g.attempted == 0 || out.units == 0 || out.hash == "" {
			t.Fatalf("seed %d: %d checks, %v units, hash %q", seed, g.attempted, out.units, out.hash)
		}
		hashes[seed] = out.hash
	}
	if hashes[1] == hashes[2] {
		t.Fatalf("seeds 1 and 2 both hash to %s", hashes[1])
	}
}

// TestNewLabMatchesExperimentsNewLab checks that the traced set-up,
// which splits experiments.NewLab into its calls, builds the same lab
// as the untraced set-up, which calls experiments.NewLab.
func TestNewLabMatchesExperimentsNewLab(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two labs")
	}
	cfg := tinyConfig(3)
	want, err := newLab(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer("t")
	got, err := newLab(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.encoded, want.encoded) {
		t.Fatal("package differs from experiments.NewLab's")
	}
	if got.Cfg.ServerCfg.OfferedRPS != want.Cfg.ServerCfg.OfferedRPS ||
		got.Cfg.ServerCfg.ProfileWindow != want.Cfg.ServerCfg.ProfileWindow {
		t.Fatal("calibrated config differs from experiments.NewLab's")
	}
	if !bytes.Equal(got.decoded.Encode(), got.encoded) {
		t.Fatal("package codec round trip is not exact")
	}
	var names []string
	for _, s := range tr.spans {
		names = append(names, s.Name)
	}
	if want := "workload.generate_site,core.calibrate,core.seed_package,prof.encode,prof.decode"; strings.Join(names, ",") != want {
		t.Fatalf("traced set-up spans %v, want %s", names, want)
	}
}

func TestCPUSharesFromRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	var sink []byte
	for time.Now().Before(deadline) {
		sink = make([]byte, 1<<16)
	}
	_ = sink
	pprof.StopCPUProfile()
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, c := range cpuPackages {
		v, ok := shares[c.key]
		if !ok || v < 0 {
			t.Fatalf("share of %s = %v, %v", c.key, v, ok)
		}
		sum += v
	}
	if sum > 1+1e-9 {
		t.Fatalf("shares sum to %v", sum)
	}
	if _, err := cpuShares([]byte("not a profile")); err == nil {
		t.Fatal("garbage accepted as a profile")
	}
}

func TestPackageOf(t *testing.T) {
	for sym, want := range map[string]string{
		"jumpstart/internal/interp.(*Interp).run":                "jumpstart/internal/interp",
		"jumpstart/internal/jumpstart/transport.(*Client).Fetch": "jumpstart/internal/jumpstart/transport",
		"compress/flate.(*compressor).deflate":                   "compress/flate",
		"runtime.mallocgc":                                       "runtime",
		"internal/runtime/maps.(*Map).getWithKey":                "runtime",
		"main.main":         "main",
		"gopkg.in/x.v2/y.F": "gopkg.in/x.v2/y",
	} {
		if got := packageOf(sym); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", sym, got, want)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's metric lists
// in step with what the benchmark reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark %v", names, workloadNames)
	}
	for _, c := range []struct {
		kind string
		json []struct{ Name, Unit, Better string }
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark %d", c.kind, len(c.json), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if j := c.json[i]; j.Name != d.name || j.Unit != d.unit || j.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", c.kind, i, j, d)
			}
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "warmup", "--trace", "2"},
		{"--workload", "warmup", "--seconds", "0"},
		{"--workload", "warmup", "extra"},
	} {
		var out, errb bytes.Buffer
		if err := run(args, &out, &errb); err == nil {
			t.Errorf("run(%q) succeeded", args)
		}
		if out.Len() != 0 {
			t.Errorf("run(%q) printed %q", args, out.String())
		}
	}
}

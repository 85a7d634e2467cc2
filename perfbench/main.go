// Command perfbench is the repository's performance benchmark. Each
// invocation is one run of one workload in a fresh process: it sets the
// workload up several times (setup_s is the median), then times whole
// passes of the workload's public calls until --seconds have been
// measured, checking every pass's simulated outputs. With --trace 1 it
// instead makes one untraced and one traced pass and reports per-layer
// metrics from spans the benchmark records around each call, telemetry
// counters and a CPU profile.
//
// The last line of standard output is the result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload warmup --seed 1 --seconds 10 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"jumpstart/internal/experiments"
)

// A run sets its workload up at least setupReps times, and more while
// its set-ups add up to less than setupBudget; setup_s is the median.
const (
	setupReps   = 3
	setupBudget = 8 * time.Second
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
}

// result is the line the benchmark ends its output with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// manifest is the provenance printed with every result.
type manifest struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Workers    int    `json:"workers"`
	ConfigHash string `json:"config_hash"`
	Revision   string `json:"vcs_revision"`
	Modified   string `json:"vcs_modified"`
	RunID      string `json:"run_id"`
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", defaultSeed, "input seed, passed to SiteConfig.Seed and FleetCfg.Seed")
	seconds := fs.Int("seconds", 10, "host seconds of timed passes to measure (at least one pass runs)")
	trace := fs.Int("trace", 0, "1: one untraced and one traced pass, reporting per-layer metrics")
	spansPath := fs.String("spans", "", "where the traced run writes its spans (default .bench_build/spans/<workload>-<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("bad arguments (see -h): want --workload, --seed, --seconds >= 1 and --trace 0|1")
	}
	_, cfg, err := newBench(*name, *seed)
	if err != nil {
		return err
	}
	fresh := func() bench {
		b, _, _ := newBench(*name, *seed) // the same call succeeded above
		return b
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	man := newManifest(*name, *seed, *seconds, *trace == 1, cfg)
	mj, _ := json.Marshal(man) // plain struct of strings and numbers
	fmt.Fprintf(stdout, "# manifest %s\n", mj)

	g := &gate{}
	var res map[string]metric
	if *trace == 1 {
		path := *spansPath
		if path == "" {
			path = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", *name, *seed))
		}
		res = tracedRun(fresh, *name, *seed, man, path, g, stdout)
	} else {
		res = timedRun(fresh, *name, *seed, time.Duration(*seconds)*time.Second, g, stdout)
	}
	for _, n := range g.notes {
		fmt.Fprintln(stdout, "# FAIL", n)
	}
	fmt.Fprintf(stdout, "# fail_frac %.6f (%d of %d checks)\n", g.failFrac(), g.failed, g.attempted)
	out, err := json.Marshal(result{Correct: g.failed == 0, Attempted: max(g.attempted, 1), Failed: g.failed, Metrics: res})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", out)
	return err
}

func newManifest(name string, seed uint64, seconds int, trace bool, cfg experiments.Config) manifest {
	m := manifest{
		Workload: name, Seed: seed, Seconds: seconds, Trace: trace,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Workers:    cfg.Workers,
		ConfigHash: configHash(name, cfg),
		Revision:   "unknown", Modified: "unknown",
		RunID: fmt.Sprintf("%s-%d-%d-%d", name, seed, os.Getpid(), time.Now().UnixNano()),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Revision = s.Value
			case "vcs.modified":
				m.Modified = s.Value
			}
		}
	}
	return m
}

// configHash fingerprints everything that decides a workload's inputs:
// the experiments configuration after the seed is applied and the
// fleet workload's own settings.
func configHash(name string, cfg experiments.Config) string {
	b, err := json.Marshal(struct {
		Workload              string
		Config                experiments.Config
		FleetServersPerBucket int
		FleetDefectRate       float64
	}{name, cfg, fleetServersPerBucket, fleetDefectRate})
	if err != nil {
		return "unhashable: " + err.Error()
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// settle collects the garbage earlier set-ups and passes left, so each
// timed set-up and pass starts from the same heap.
func settle() { runtime.GC() }

// timedRun is the untraced run: set-ups (see setupReps), then passes
// until the measured pass time reaches budget. Every set-up is made on
// a fresh bench, after the previous one's state has been dropped and
// collected. Every pass after the first starts from a set-up of its
// own, which adds a set-up sample.
func timedRun(fresh func() bench, name string, seed uint64, budget time.Duration, g *gate, stdout io.Writer) map[string]metric {
	var setups, walls, rates []float64
	var b bench
	setup := func() bool {
		b = nil
		settle()
		b = fresh()
		t0 := time.Now()
		err := b.setup(nil)
		setups = append(setups, time.Since(t0).Seconds())
		fmt.Fprintf(stdout, "# setup %d: %.3f s\n", len(setups), setups[len(setups)-1])
		g.op(err)
		return err == nil
	}
	var spent float64
	for len(setups) < setupReps || spent < setupBudget.Seconds() {
		if !setup() {
			return nil
		}
		spent += setups[len(setups)-1]
	}
	var first string
	var measured time.Duration
	for {
		settle()
		t0 := time.Now()
		out, err := b.pass(nil, g)
		wall := time.Since(t0)
		g.op(err)
		if err != nil {
			return nil
		}
		if first == "" {
			first = out.hash
		}
		g.checkHash(name, seed, first, out.hash)
		measured += wall
		walls = append(walls, wall.Seconds())
		rates = append(rates, out.units/wall.Seconds())
		fmt.Fprintf(stdout, "# pass %d: %.3f s, %.0f units, %.1f units/s, hash %s\n",
			len(walls), wall.Seconds(), out.units, rates[len(rates)-1], out.hash)
		if measured >= budget || !setup() {
			break
		}
	}
	fmt.Fprintf(stdout, "# median pass %.3f s, peak RSS %.1f MB\n", median(walls), peakRSSMB())
	return map[string]metric{
		"setup_s":    {median(setups), "s"},
		"work_per_s": {median(rates), "1/s"},
	}
}

// tracedRun sets up with tracing, makes one untraced pass, sets up
// again and makes one traced pass under a CPU profile and a telemetry
// set, then derives the per-layer metrics.
func tracedRun(fresh func() bench, name string, seed uint64, man manifest, path string, g *gate, stdout io.Writer) map[string]metric {
	b := fresh()
	tr := newTracer(man.RunID)
	end := tr.begin("setup")
	err := b.setup(tr)
	end()
	g.op(err)
	if err != nil {
		return nil
	}
	settle()
	rt0 := readRuntime()
	t0 := time.Now()
	plain, err := b.pass(nil, g)
	plainWall := time.Since(t0)
	rt := readRuntime().sub(rt0)
	g.op(err)
	if err != nil {
		return nil
	}
	b = nil
	settle()
	b = fresh()
	if err := b.setup(nil); err != nil {
		g.op(err)
		return nil
	}
	settle()

	var prof bytes.Buffer
	g.op(pprof.StartCPUProfile(&prof))
	t0 = time.Now()
	end = tr.begin("pass")
	traced, err := b.pass(tr, g)
	end()
	tracedWall := time.Since(t0)
	pprof.StopCPUProfile()
	g.op(err)
	if err != nil {
		return nil
	}
	// The traced pass must hash as the untraced one (and, at the
	// default seed, as the reference).
	g.checkHash(name, seed, plain.hash, traced.hash)
	cpu, err := cpuShares(prof.Bytes())
	g.op(err)

	overhead := (tracedWall.Seconds()/plainWall.Seconds() - 1) * 100
	fmt.Fprintf(stdout, "# untraced pass %.3f s, traced pass %.3f s: tracing overhead %+.1f%%\n",
		plainWall.Seconds(), tracedWall.Seconds(), overhead)
	g.op(writeSpans(path, man, tr.spans))
	fmt.Fprintf(stdout, "# spans written to %s\n", path)
	res, notes := layerMetrics(tr.spans, traced, cpu, plainWall.Seconds(), rt, overhead)
	for _, n := range append(traced.notes, notes...) {
		fmt.Fprintln(stdout, "#", n)
	}
	return res
}

// runtimeStats are the runtime/metrics the traced run reports.
type runtimeStats struct{ allocBytes, gcCycles, gcCPU float64 }

var runtimeSamples = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles", "/cpu/classes/gc/total:cpu-seconds"}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeStats{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

func (a runtimeStats) sub(b runtimeStats) runtimeStats {
	return runtimeStats{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.gcCPU - b.gcCPU}
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

package main

import (
	"bytes"
	"fmt"
	"math"

	"jumpstart/internal/cluster"
	"jumpstart/internal/core"
	"jumpstart/internal/experiments"
	"jumpstart/internal/jumpstart/transport"
	"jumpstart/internal/microarch"
	"jumpstart/internal/netsim"
	"jumpstart/internal/obs"
	"jumpstart/internal/prof"
	"jumpstart/internal/server"
	"jumpstart/internal/telemetry"
	"jumpstart/internal/workload"
)

// outputs is what one timed pass produced.
type outputs struct {
	// units is the simulated work the pass completed: millions of
	// cycles the simulated servers charged on warmup, steady and
	// figures, servers × Fleet.Tick calls on fleet. work_per_s divides
	// it by the pass's wall time.
	units float64
	hash  string
	// counts are per-layer counts and simulated values. They are the
	// same in the traced and the untraced pass.
	counts map[string]float64
	// telemetry holds the counters of the telemetry.Set attached to
	// the traced pass (nil when untraced).
	telemetry *telemetry.Registry
	// notes describe the pass for the traced run's "#" lines.
	notes []string
}

// bench is one workload. setup prepares fresh state for exactly one
// pass, so nothing a pass times can reach state warmed by an earlier
// pass; pass runs the timed phase on that state.
type bench interface {
	setup(tr *tracer) error
	pass(tr *tracer, g *gate) (outputs, error)
}

var workloadNames = []string{"warmup", "steady", "fleet", "figures"}

// labConfig returns the workload's experiments configuration with the
// seed applied and one worker everywhere: each workload is a closed
// loop with a single caller.
func labConfig(cfg experiments.Config, seed uint64) experiments.Config {
	cfg.SiteCfg.Seed = seed
	cfg.FleetCfg.Seed = seed
	cfg.Workers = 1
	cfg.FleetCfg.Workers = 1
	return cfg
}

// newBench builds the named workload at the given seed.
func newBench(name string, seed uint64) (bench, experiments.Config, error) {
	switch name {
	case "warmup":
		cfg := labConfig(experiments.Default(), seed)
		return &warmupBench{base: cfg}, cfg, nil
	case "steady":
		cfg := labConfig(experiments.Default(), seed)
		return &steadyBench{base: cfg}, cfg, nil
	case "fleet":
		cfg := labConfig(experiments.Quick(), seed)
		return &fleetBench{base: cfg}, cfg, nil
	case "figures":
		cfg := labConfig(experiments.Quick(), seed)
		return &figuresBench{base: cfg}, cfg, nil
	}
	return nil, experiments.Config{}, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// lab is the shared set-up every workload starts from: the program's
// experiments.NewLab plus one codec round trip of the seeded package.
type lab struct {
	*experiments.Lab
	encoded []byte        // the package as a consumer fetches it
	decoded *prof.Profile // one consumer's copy, decoded during set-up
}

func newLab(base experiments.Config, tr *tracer) (*lab, error) {
	var el *experiments.Lab
	var err error
	if tr == nil {
		el, err = experiments.NewLab(base)
	} else {
		el, err = tracedNewLab(base, tr)
	}
	if err != nil {
		return nil, err
	}
	end := tr.begin("prof.encode")
	enc := el.Package.Encode()
	end()
	l := &lab{Lab: el, encoded: enc}
	if l.decoded, err = l.consumerPackage(tr); err != nil {
		return nil, err
	}
	return l, nil
}

// tracedNewLab makes the calls experiments.NewLab makes, one layer at
// a time, so that the traced run can time each of them.
// TestNewLabMatchesExperimentsNewLab checks that both give the same
// lab.
func tracedNewLab(base experiments.Config, tr *tracer) (*experiments.Lab, error) {
	end := tr.begin("workload.generate_site")
	site, err := workload.GenerateSite(base.SiteCfg)
	end()
	if err != nil {
		return nil, fmt.Errorf("generate site: %w", err)
	}
	sc := &core.Scenario{Site: site, ServerCfg: base.ServerCfg}
	end = tr.begin("core.calibrate")
	_, err = sc.Calibrate(0.95, base.Horizon)
	end()
	if err != nil {
		return nil, fmt.Errorf("calibrate: %w", err)
	}
	cfg := base
	cfg.ServerCfg = sc.ServerCfg
	end = tr.begin("core.seed_package")
	pkg, err := sc.SeedPackage()
	end()
	if err != nil {
		return nil, fmt.Errorf("seed package: %w", err)
	}
	return &experiments.Lab{Cfg: cfg, Scenario: sc, Package: pkg}, nil
}

// consumerPackage returns a private copy of the package for one
// consumer, as experiments.Lab decodes one for each run: the copy
// decoded during set-up first, then fresh decodes.
func (l *lab) consumerPackage(tr *tracer) (*prof.Profile, error) {
	if p := l.decoded; p != nil {
		l.decoded = nil
		return p, nil
	}
	end := tr.begin("prof.decode")
	p, err := prof.Decode(l.encoded)
	end()
	if err != nil {
		return nil, fmt.Errorf("decode package: %w", err)
	}
	return p, nil
}

func (l *lab) packageKB() float64 { return float64(len(l.encoded)) / 1024 }

// variant is one named Jump-Start feature set.
type variant struct {
	name string
	v    core.Variant
}

// steadyVariants are the Figure 5/6 configurations.
var steadyVariants = []variant{
	{"none", core.Variant{}},
	{"js", core.Variant{JumpStart: true}},
	{"js_vasm", core.Variant{JumpStart: true, VasmCounters: true}},
	{"js_callgraph", core.Variant{JumpStart: true, SeededCallGraph: true}},
	{"js_proporder", core.Variant{JumpStart: true, PropertyOrder: true}},
	{"js_full", core.FullJumpStart()},
}

// serverFor boots a server for v; pkg is nil unless v consumes one.
func serverFor(l *lab, v core.Variant, pkg *prof.Profile, tr *tracer) (*server.Server, error) {
	end := tr.begin("core.server_for")
	s, err := l.Scenario.ServerFor(v, pkg)
	end()
	if err != nil {
		return nil, fmt.Errorf("server for %+v: %w", v, err)
	}
	return s, nil
}

// addServerCounts adds a server's replay-cache activity since the
// given snapshot, and the micro-architecture statistics m, to counts.
func addServerCounts(counts map[string]float64, s *server.Server, hits0, misses0 uint64, m microarch.Stats) {
	rc := s.ReplayCache()
	if rc != nil {
		counts["replay.hits"] += float64(rc.Hits() - hits0)
		counts["replay.misses"] += float64(rc.Misses() - misses0)
		counts["replay.entries"] += float64(rc.Entries())
	}
	for _, kv := range []struct {
		name string
		n    uint64
	}{
		{"fetches", m.Fetches}, {"l1i_misses", m.L1IMisses},
		{"data_accs", m.DataAccs}, {"l1d_misses", m.L1DMisses},
		{"llc_accs", m.LLCAccs}, {"llc_misses", m.LLCMisses},
		{"itlb_accs", m.ITLBAccs}, {"itlb_misses", m.ITLBMisses},
		{"branches", m.Branches}, {"branch_misses", m.BranchMiss},
	} {
		counts["mem."+kv.name] += float64(kv.n)
	}
}

func replayStats(s *server.Server) (hits, misses uint64) {
	if rc := s.ReplayCache(); rc != nil {
		return rc.Hits(), rc.Misses()
	}
	return 0, 0
}

// ---------------------------------------------------------------------
// warmup: the Figure 4 restarts at Default scale. The horizon is
// Figure 4's, which holds every warmup phase; the serving tail past it
// is steady serving, which the steady workload measures.

type warmupBench struct {
	base experiments.Config
	lab  *lab
}

func (w *warmupBench) setup(tr *tracer) error {
	l, err := newLab(w.base, tr)
	w.lab = l
	return err
}

// tickNames holds each phase's tick span name, so naming a tick's
// span does not allocate.
var tickNames = func() (names [server.PhaseExited + 1]string) {
	for p := range names {
		names[p] = "server.tick." + server.Phase(p).String()
	}
	return names
}()

func (w *warmupBench) pass(tr *tracer, g *gate) (outputs, error) {
	l := w.lab
	w.lab = nil
	out := outputs{counts: map[string]float64{"prof.package_kb": l.packageKB()}}
	d := newDigest()
	cfg := l.Cfg.ServerCfg
	n := int(l.Cfg.Horizon / cfg.TickSeconds)
	var loss [2]float64
	for i, v := range []variant{steadyVariants[0], steadyVariants[5]} {
		var pkg *prof.Profile
		if v.v.JumpStart {
			pkg = l.decoded
		}
		s, err := serverFor(l, v.v, pkg, tr)
		if err != nil {
			return out, err
		}
		ticks := make([]server.TickStats, 0, n)
		for len(ticks) < n {
			ph := s.Phase()
			end := tr.begin(tickNames[ph])
			tk := s.Tick()
			end()
			ticks = append(ticks, tk)
			out.counts["server.requests."+ph.String()] += float64(tk.Completed)
			d.add("%s %+v", v.name, tk)
		}
		last := ticks[n-1].T
		g.check(math.Abs(last-float64(n)*cfg.TickSeconds) < 1e-6,
			"warmup %s: %d ticks end at %v s, want %v s", v.name, n, last, float64(n)*cfg.TickSeconds)
		addServerCounts(out.counts, s, 0, 0, s.Mem().Stats())
		out.counts["jit.code_bytes"] += float64(s.CodeBytes())
		out.units += s.TotalCycles() / 1e6
		loss[i] = server.CapacityLoss(ticks, cfg.OfferedRPS)
		d.add("%s loss=%v code=%d", v.name, loss[i], s.CodeBytes())
	}
	g.check(loss[1] < loss[0], "warmup: Jump-Start capacity loss %.4f not below no-Jump-Start %.4f", loss[1], loss[0])
	out.hash = d.sum()
	return out, nil
}

// ---------------------------------------------------------------------
// steady: Figure 5/6 steady-state measurement at Default scale.

type steadyBench struct {
	base    experiments.Config
	servers []*server.Server // warmed, one per steadyVariants entry
	n       int
	pkgKB   float64
}

func (b *steadyBench) setup(tr *tracer) error {
	l, err := newLab(b.base, tr)
	if err != nil {
		return err
	}
	b.servers, b.n, b.pkgKB = nil, l.Cfg.SteadyRequests, l.packageKB()
	for _, v := range steadyVariants {
		var pkg *prof.Profile
		if v.v.JumpStart {
			if pkg, err = l.consumerPackage(tr); err != nil {
				return err
			}
		}
		s, err := serverFor(l, v.v, pkg, tr)
		if err != nil {
			return err
		}
		end := tr.begin("server.warm_to_serving")
		err = s.WarmToServing(14400)
		end()
		if err != nil {
			return fmt.Errorf("warm %s: %w", v.name, err)
		}
		b.servers = append(b.servers, s)
	}
	return nil
}

func (b *steadyBench) pass(tr *tracer, g *gate) (outputs, error) {
	servers := b.servers
	b.servers = nil
	out := outputs{counts: map[string]float64{"prof.package_kb": b.pkgKB}}
	d := newDigest()
	for i, s := range servers {
		name := steadyVariants[i].name
		hits0, misses0 := replayStats(s)
		cycles0, code0 := s.TotalCycles(), s.CodeBytes()
		end := tr.begin("server.measure_steady." + name)
		st := s.MeasureSteady(b.n)
		end()
		// MeasureSteady's warm batches may still compile the long tail.
		out.counts["jit.code_bytes"] += float64(s.CodeBytes())
		out.notes = append(out.notes, fmt.Sprintf("steady %s: JIT code grew %d bytes in MeasureSteady",
			name, s.CodeBytes()-code0))
		g.check(st.Requests == b.n && st.CapacityRPS > 0,
			"steady %s: %d requests at %.1f RPS, want %d", name, st.Requests, st.CapacityRPS, b.n)
		// MeasureSteady resets the hierarchy's statistics before it
		// measures, so st.Mem covers the measured requests only.
		addServerCounts(out.counts, s, hits0, misses0, st.Mem)
		out.counts["server.requests.steady"] += float64(st.Requests)
		out.units += (s.TotalCycles() - cycles0) / 1e6
		d.add("%s %+v", name, st)
	}
	out.hash = d.sum()
	return out, nil
}

// ---------------------------------------------------------------------
// fleet: one large deployment over the multi-region store.

// fleetServersPerBucket scales the fleet to 15,000 servers, so that
// Fleet.Tick, not set-up, fills the timed phase, while a run still
// fits the benchmark's time budget.
const fleetServersPerBucket = 500

// fleetDefectRate is the share of seeders producing a crash-inducing
// package, high enough that some escape validation and consensus, so
// crash loops and fallbacks are exercised.
const fleetDefectRate = 0.2

type fleetBench struct {
	base   experiments.Config
	lab    *lab
	curves [2]cluster.WarmupCurve
}

func (b *fleetBench) setup(tr *tracer) error {
	l, err := newLab(b.base, tr)
	if err != nil {
		return err
	}
	end := tr.begin("experiments.fleet_curves")
	js, no, err := l.FleetCurves()
	end()
	if err != nil {
		return fmt.Errorf("fleet curves: %w", err)
	}
	b.lab, b.curves = l, [2]cluster.WarmupCurve{js, no}
	return nil
}

// fleetConfig is the deployment the fleet workload runs: the lab's
// fleet scaled up, pushing on the lab's cadence, with defective
// seeders and the multi-region store (replicas, seeder aggregation,
// propagation) over a lossy fabric with one store node down, so
// fetches retry and fail over and long-haul transfers resume.
func fleetConfig(l *lab, curves [2]cluster.WarmupCurve) cluster.Config {
	end := 6 * l.Cfg.Horizon
	cfg := l.Cfg.FleetCfg
	cfg.ServersPerBucket = fleetServersPerBucket
	cfg.CurveJumpStart, cfg.CurveNoJumpStart = curves[0], curves[1]
	cfg.DefectRate = fleetDefectRate
	cfg.ValidationCatchRate = 0.8 // as the reliability figure's defective regime
	cfg.PushEvery = l.Cfg.PushInterval
	cfg.RecordSeries = true
	cfg.Transport = &cluster.TransportConfig{
		Net: netsim.Config{BaseLatency: 0.02, Faults: []netsim.Fault{
			netsim.Partition(0, end, "intra:r0/n0"),
			netsim.Brownout(0, end, 0.1, 0),
		}},
		Client:       transport.ClientConfig{RPCTimeout: 1, Budget: 12, BackoffBase: 0.1, BackoffCap: 5},
		PackageBytes: 2048,
		ChunkSize:    512,
		Multi: &cluster.MultiConfig{
			NodesPerRegion:   3,
			Replicas:         2,
			PropagateEvery:   60,
			InterNet:         netsim.Config{BaseLatency: 0.3, Faults: []netsim.Fault{netsim.Brownout(0, end, 0.3, 0.3)}},
			AggregateSeeders: 2,
		},
	}
	return cfg
}

func (b *fleetBench) pass(tr *tracer, g *gate) (outputs, error) {
	l := b.lab
	b.lab = nil
	out := outputs{counts: map[string]float64{"prof.package_kb": l.packageKB()}}
	cfg := fleetConfig(l, b.curves)
	if tr != nil {
		out.telemetry = telemetry.NewRegistry()
		cfg.Telem = &telemetry.Set{Metrics: out.telemetry}
	}
	d := newDigest()
	end := tr.begin("cluster.new_fleet")
	f, err := cluster.NewFleet(cfg)
	end()
	if err != nil {
		return out, fmt.Errorf("new fleet: %w", err)
	}
	f.StartDeployment()
	n := int(6 * l.Cfg.Horizon / cfg.TickSeconds)
	for i := 0; i < n; i++ {
		name := "cluster.tick.idle"
		if f.Deploying() {
			name = "cluster.tick.deploy"
		}
		end := tr.begin(name)
		tk := f.Tick()
		end()
		g.check(tk.Capacity >= 0 && tk.Capacity <= 1, "fleet: tick %d capacity %v outside [0, 1]", i, tk.Capacity)
		d.add("%+v", tk)
	}
	out.units = float64(f.Servers() * n)
	end = tr.begin("obs.classify")
	labels := map[string]int{}
	for _, xs := range f.WarmupSeries() {
		labels[obs.Classify(xs, cfg.TickSeconds).Label.String()]++
	}
	end()
	for _, lb := range obs.Labels {
		d.add("%s=%d", lb, labels[lb.String()])
	}
	d.add("crashes=%d fallbacks=%d failovers=%d", f.Crashes(), f.Fallbacks(), f.Failovers())
	out.notes = append(out.notes, fmt.Sprintf("fleet: %d servers, %d ticks", f.Servers(), n))
	out.hash = d.sum()
	return out, nil
}

// ---------------------------------------------------------------------
// figures: every figure at Quick scale, as `experiments -fig all -quick
// -workers 1` renders them.

type figuresBench struct {
	base   experiments.Config
	lab    *lab
	cycles *telemetry.CycleProfile
}

func (b *figuresBench) setup(tr *tracer) error {
	l, err := newLab(b.base, tr)
	if err != nil {
		return err
	}
	// Every server the figures boot charges its cycles here, which
	// `experiments -fig all` does not do. With no metrics or trace
	// attached this costs one addition per charge; README.md gives the
	// measured overhead.
	b.cycles = telemetry.NewCycleProfile()
	tel := &telemetry.Set{Cycles: b.cycles}
	l.Cfg.ServerCfg.Telem, l.Scenario.ServerCfg.Telem = tel, tel
	b.lab = l
	return nil
}

func (b *figuresBench) pass(tr *tracer, g *gate) (outputs, error) {
	l := b.lab
	b.lab = nil
	out := outputs{counts: map[string]float64{"prof.package_kb": l.packageKB()}}
	d := newDigest()
	for _, fig := range experiments.FigureOrder {
		var buf bytes.Buffer
		end := tr.begin("experiments.fig." + fig)
		err := l.WriteFigure(&buf, fig)
		end()
		if err != nil {
			return out, fmt.Errorf("figure %s: %w", fig, err)
		}
		g.check(buf.Len() > 0, "figure %s rendered nothing", fig)
		d.add("%s", buf.Bytes())
	}
	out.units = b.cycles.Total() / 1e6
	out.hash = d.sum()
	return out, nil
}

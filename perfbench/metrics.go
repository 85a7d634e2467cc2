package main

import (
	"fmt"
	"strings"
	"time"

	"jumpstart/internal/experiments"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions; a test keeps the two in step.
type metricDef struct{ name, unit, better string }

// endToEnd are the untraced run's metrics, reported on every workload.
// Pass wall time and peak RSS are per-layer metrics instead: both track
// the generated site, and across seeds they spread far wider than any
// usable bound (steady: 7 to 18 s, 127 to 282 MB), while simulated work
// per host second does not.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"work_per_s", "1/s", "higher"},
}

var (
	phases = []string{"init", "profiling", "optimizing", "serving"}
	// telemetryCounters maps a per-layer metric to the telemetry
	// counter it reads.
	telemetryCounters = []struct{ metric, counter string }{
		{"transport.rpcs", "transport.rpcs_total"},
		{"transport.rpc_failures", "transport.rpc_failures_total"},
		{"transport.retries", "transport.retries_total"},
		{"transport.fetch_ok", "transport.fetch_ok_total"},
		{"transport.fetch_fail", "transport.fetch_fail_total"},
		{"multistore.publish_ok", "multistore.publish_ok_total"},
		{"multistore.fetch_ok", "multistore.fetch_ok_total"},
		{"multistore.failovers", "multistore.fetch_failover_total"},
		{"multistore.exhausted", "multistore.fetch_exhausted_total"},
		{"fleet.published", "fleet.published_total"},
		{"fleet.consensus_published", "fleet.consensus_published_total"},
		{"fleet.crashes", "fleet.crashes_total"},
		{"fleet.fallbacks", "fleet.fallbacks_total"},
	}
)

// perLayer are the traced run's metrics, reported on every workload; a
// layer the workload does not exercise reports 0.
var perLayer = func() []metricDef {
	d := []metricDef{
		{"run.wall_s", "s", "lower"},
		{"run.peak_rss_mb", "MB", "lower"},
		{"server.sim_rps", "1/s", "higher"},
		{"workload.generate_site_s", "s", "lower"},
		{"core.calibrate_s", "s", "lower"},
		{"core.seed_package_s", "s", "lower"},
		{"prof.encode_s", "s", "lower"},
		{"prof.decode_s", "s", "lower"},
		{"prof.package_kb", "KiB", "lower"},
		{"experiments.fleet_curves_s", "s", "lower"},
		{"server.warm_to_serving_s", "s", "lower"},
		{"core.server_for_s", "s", "lower"},
	}
	for _, p := range phases {
		d = append(d, metricDef{"server.tick_s." + p, "s", "lower"})
	}
	for _, p := range append(phases, "steady") {
		d = append(d, metricDef{"server.requests." + p, "count", "higher"})
	}
	for _, p := range append(phases, "steady") {
		d = append(d, metricDef{"server.ns_per_req." + p, "ns", "lower"})
	}
	d = append(d,
		metricDef{"server.tick_p50_ms", "ms", "lower"},
		metricDef{"server.tick_tail_ms", "ms", "lower"},
		metricDef{"jit.code_bytes", "bytes", "lower"},
		metricDef{"replay.hits", "count", "higher"},
		metricDef{"replay.misses", "count", "lower"},
		metricDef{"replay.hit_ratio", "ratio", "higher"},
		metricDef{"replay.entries", "count", "lower"},
	)
	for _, v := range steadyVariants {
		d = append(d, metricDef{"server.measure_steady_s." + v.name, "s", "lower"})
	}
	d = append(d, metricDef{"microarch.events", "count", "lower"})
	for _, m := range []string{"l1i", "l1d", "llc", "itlb", "branch"} {
		d = append(d, metricDef{"microarch." + m + "_mr", "ratio", "lower"})
	}
	d = append(d,
		metricDef{"cluster.new_fleet_s", "s", "lower"},
		metricDef{"cluster.tick_p50_ms", "ms", "lower"},
		metricDef{"cluster.tick_tail_ms", "ms", "lower"},
		metricDef{"cluster.deploy_tick_s", "s", "lower"},
		metricDef{"cluster.idle_tick_s", "s", "lower"},
		metricDef{"obs.classify_s", "s", "lower"},
	)
	for _, c := range telemetryCounters {
		better := "lower"
		if strings.HasSuffix(c.metric, "_ok") || strings.HasSuffix(c.metric, "published") {
			better = "higher"
		}
		d = append(d, metricDef{c.metric, "count", better})
	}
	d = append(d, metricDef{"transport.fetch_ok_ratio", "ratio", "higher"})
	for _, f := range experiments.FigureOrder {
		d = append(d, metricDef{"experiments.fig_s." + f, "s", "lower"})
	}
	d = append(d,
		metricDef{"runtime.alloc_mb", "MB", "lower"},
		metricDef{"runtime.gc_cycles", "count", "lower"},
		metricDef{"runtime.gc_cpu_s", "s", "lower"},
	)
	for _, c := range cpuPackages {
		d = append(d, metricDef{"cpu." + c.key + "_frac", "ratio", "lower"})
	}
	return append(d, metricDef{"trace.overhead_pct", "%", "lower"})
}()

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics derives every per-layer metric of a traced run from its
// spans (set-up and traced pass), the traced pass's outputs, the CPU
// shares, the wall time and runtime statistics of the untraced pass and
// the tracing overhead. notes are the sample counts behind the metrics,
// for the run's "#" lines.
func layerMetrics(spans []Span, out outputs, cpu map[string]float64, wall float64, rt runtimeStats, overhead float64) (res map[string]metric, notes []string) {
	v := map[string]float64{
		"run.wall_s":      wall,
		"run.peak_rss_mb": peakRSSMB(),
	}
	self := selfByName(spans)
	for _, name := range []string{"workload.generate_site", "core.calibrate", "core.seed_package",
		"prof.encode", "prof.decode", "experiments.fleet_curves", "server.warm_to_serving",
		"core.server_for", "cluster.new_fleet", "obs.classify"} {
		v[name+"_s"] = self[name]
	}
	for _, p := range phases {
		v["server.tick_s."+p] = self["server.tick."+p]
	}
	var steadySecs float64
	for _, sv := range steadyVariants {
		secs := self["server.measure_steady."+sv.name]
		v["server.measure_steady_s."+sv.name] = secs
		steadySecs += secs
	}
	for _, f := range experiments.FigureOrder {
		v["experiments.fig_s."+f] = self["experiments.fig."+f]
	}
	v["cluster.deploy_tick_s"] = self["cluster.tick.deploy"]
	v["cluster.idle_tick_s"] = self["cluster.tick.idle"]

	var serverTicks, clusterTicks []float64
	for _, s := range spans {
		ms := float64(s.Dur()) / float64(time.Millisecond)
		switch {
		case strings.HasPrefix(s.Name, "server.tick."):
			serverTicks = append(serverTicks, ms)
		case strings.HasPrefix(s.Name, "cluster.tick."):
			clusterTicks = append(clusterTicks, ms)
		}
	}
	for _, t := range []struct {
		layer string
		ms    []float64
	}{{"server", serverTicks}, {"cluster", clusterTicks}} {
		var pct float64
		v[t.layer+".tick_p50_ms"], v[t.layer+".tick_tail_ms"], pct = tail(t.ms)
		if len(t.ms) > 0 {
			notes = append(notes, fmt.Sprintf("%s ticks: %d, %s.tick_tail_ms is p%g", t.layer, len(t.ms), t.layer, pct))
		}
	}

	c := out.counts
	requests := c["server.requests.steady"]
	v["server.requests.steady"] = requests
	v["server.ns_per_req.steady"] = ratio(steadySecs*1e9, requests)
	for _, p := range phases {
		n := c["server.requests."+p]
		v["server.requests."+p] = n
		v["server.ns_per_req."+p] = ratio(v["server.tick_s."+p]*1e9, n)
		requests += n
	}
	v["server.sim_rps"] = ratio(requests, wall)
	for _, k := range []string{"jit.code_bytes", "replay.hits", "replay.misses", "replay.entries", "prof.package_kb"} {
		v[k] = c[k]
	}
	v["replay.hit_ratio"] = ratio(c["replay.hits"], c["replay.hits"]+c["replay.misses"])
	v["microarch.events"] = c["mem.fetches"] + c["mem.data_accs"] + c["mem.branches"]
	v["microarch.l1i_mr"] = ratio(c["mem.l1i_misses"], c["mem.fetches"])
	v["microarch.l1d_mr"] = ratio(c["mem.l1d_misses"], c["mem.data_accs"])
	v["microarch.llc_mr"] = ratio(c["mem.llc_misses"], c["mem.llc_accs"])
	v["microarch.itlb_mr"] = ratio(c["mem.itlb_misses"], c["mem.itlb_accs"])
	v["microarch.branch_mr"] = ratio(c["mem.branch_misses"], c["mem.branches"])

	counter := func(name string) float64 {
		if out.telemetry == nil {
			return 0
		}
		return float64(out.telemetry.Counter(name).Value())
	}
	for _, tc := range telemetryCounters {
		v[tc.metric] = counter(tc.counter)
	}
	v["transport.fetch_ok_ratio"] = ratio(v["transport.fetch_ok"], v["transport.fetch_ok"]+v["transport.fetch_fail"])

	v["runtime.alloc_mb"] = rt.allocBytes / (1 << 20)
	v["runtime.gc_cycles"] = rt.gcCycles
	v["runtime.gc_cpu_s"] = rt.gcCPU
	for _, cp := range cpuPackages {
		v["cpu."+cp.key+"_frac"] = cpu[cp.key]
	}
	v["trace.overhead_pct"] = overhead
	notes = append(notes, fmt.Sprintf("spans: %d", len(spans)))

	res = make(map[string]metric, len(perLayer))
	for _, d := range perLayer {
		res[d.name] = metric{v[d.name], d.unit}
	}
	return res, notes
}

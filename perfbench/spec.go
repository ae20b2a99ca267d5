package main

import (
	"bytes"
	"encoding/json"
)

// metric is one named measurement. Name, Unit, Better and Bound are what
// BENCHMARK.json records; the rest documents the metric in the report.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Det marks a metric that must repeat exactly under a fixed seed.
	Det bool `json:"-"`
	// Plain marks a per-layer metric read on untraced iterations.
	Plain bool `json:"-"`
	// Moves names the end-to-end metric, and the workload, that a change
	// in this layer metric should move.
	Moves string `json:"-"`
}

// endToEnd are the untraced metrics every workload reports. Each is
// defined on every workload and is never zero there; see the package
// comment for what each means per workload.
var endToEnd = []metric{
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "kops_per_cpu_s", Unit: "kops/cpu_s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// reportOnly are end-to-end metrics printed in the report but kept off
// the result line: the wall-clock figures, which count the hypervisor's
// steal, and those that exist only on the resp workload (or, for
// error_frac, must be zero everywhere). error_frac travels there as the
// failed/attempted counts and the latencies as resp.* layer metrics.
var reportOnly = []metric{
	{Name: "wall_s", Unit: "s", Better: "lower"},
	{Name: "host_kops_per_s", Unit: "kops/s", Better: "higher"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "get_p50_us", Unit: "us", Better: "lower"},
	{Name: "get_p99_us", Unit: "us", Better: "lower"},
	{Name: "set_p50_us", Unit: "us", Better: "lower"},
	{Name: "set_p99_us", Unit: "us", Better: "lower"},
	{Name: "error_frac", Unit: "ratio", Better: "lower"},
}

// durableMoves is what the spill pass's metrics move: nothing gated, as
// that pass's speed follows the shared disk's fsync rate.
const durableMoves = "resp.durable_ops_per_s and resp.durable_set_p99_us on resp"

// perLayer are the per-layer metrics. Layers a workload bypasses read 0.
// Most come from traced iterations; Plain ones are read from outside
// without any wrapper, so they are taken from the untraced iterations.
var perLayer = []metric{
	{Name: "virt_kops", Unit: "kops", Better: "higher", Det: true, Plain: true, Moves: "no host metric: a fidelity guard, equal before and after a perf-only change"},
	{Name: "virt_p99_us", Unit: "us", Better: "lower", Det: true, Plain: true, Moves: "no host metric: a fidelity guard, equal before and after a perf-only change"},
	{Name: "kvstore.warm_s", Unit: "s", Better: "lower", Moves: "cpu_s on ycsb-hotpromote"},
	{Name: "kvstore.run_s", Unit: "s", Better: "lower", Moves: "kops_per_cpu_s on ycsb-hotpromote"},
	{Name: "kvstore.ops", Unit: "count", Better: "higher", Det: true, Moves: "base of every per-op ratio"},
	{Name: "kvstore.forwarded", Unit: "count", Better: "lower", Det: true, Moves: "kops_per_cpu_s on cluster-interleave"},
	{Name: "tiering.ticks", Unit: "count", Better: "lower", Det: true, Moves: "cpu_s on ycsb-hotpromote"},
	{Name: "tiering.tick_s", Unit: "s", Better: "lower", Moves: "cpu_s on ycsb-hotpromote"},
	{Name: "tiering.migrated_mb", Unit: "MB", Better: "lower", Det: true, Moves: "no host metric: a fidelity guard, equal before and after a perf-only change"},
	{Name: "vmm.touch_s", Unit: "s", Better: "lower", Moves: "cpu_s on ycsb-hotpromote"},
	{Name: "workload.draws", Unit: "count", Better: "lower", Det: true, Moves: "kops_per_cpu_s on ycsb-hotpromote"},
	{Name: "workload.next_ns", Unit: "ns", Better: "lower", Moves: "kops_per_cpu_s on ycsb-hotpromote"},
	{Name: "memsim.solves", Unit: "count", Better: "lower", Moves: "kops_per_cpu_s on cluster-interleave and ycsb-hotpromote"},
	{Name: "memsim.cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: "kops_per_cpu_s on cluster-interleave and ycsb-hotpromote"},
	{Name: "sim.events", Unit: "count", Better: "lower", Det: true, Moves: "kops_per_cpu_s on cluster-interleave"},
	{Name: "sim.host_ns_per_event", Unit: "ns", Better: "lower", Moves: "kops_per_cpu_s on cluster-interleave"},
	{Name: "sim.epochs", Unit: "count", Better: "lower", Det: true, Moves: "cpu_s on cluster-interleave"},
	{Name: "sim.host_us_per_epoch", Unit: "us", Better: "lower", Moves: "cpu_s on cluster-interleave"},
	{Name: "go.alloc_mb", Unit: "MB", Better: "lower", Plain: true, Moves: "peak_rss_mb and cpu_s on every workload"},
	{Name: "go.gc_cpu_frac", Unit: "ratio", Better: "lower", Plain: true, Moves: "cpu_s on every workload"},
	{Name: "resp.commands", Unit: "count", Better: "higher", Det: true, Moves: "base of the resp.* ratios"},
	{Name: "resp.get_p50_us", Unit: "us", Better: "lower", Plain: true, Moves: "kops_per_cpu_s on resp"},
	{Name: "resp.get_p99_us", Unit: "us", Better: "lower", Plain: true, Moves: "kops_per_cpu_s on resp"},
	{Name: "resp.set_p50_us", Unit: "us", Better: "lower", Plain: true, Moves: "kops_per_cpu_s on resp"},
	{Name: "resp.set_p99_us", Unit: "us", Better: "lower", Plain: true, Moves: "kops_per_cpu_s on resp"},
	{Name: "resp.get_backend_us", Unit: "us", Better: "lower", Moves: "resp.get_p99_us on resp"},
	{Name: "resp.set_backend_us", Unit: "us", Better: "lower", Moves: "resp.set_p99_us on resp"},
	{Name: "resp.wire_us", Unit: "us", Better: "lower", Moves: "kops_per_cpu_s on resp"},
	{Name: "resp.durable_ops_per_s", Unit: "1/s", Better: "higher", Moves: "no gated metric: the spill path's speed follows the shared disk's fsync rate"},
	{Name: "resp.durable_get_p99_us", Unit: "us", Better: "lower", Moves: durableMoves},
	{Name: "resp.durable_set_p99_us", Unit: "us", Better: "lower", Moves: durableMoves},
	{Name: "resp.durable_get_backend_us", Unit: "us", Better: "lower", Moves: "resp.durable_get_p99_us on resp; falls toward resp.get_backend_us when GETs stop waiting on fsyncs"},
	{Name: "resp.durable_set_backend_us", Unit: "us", Better: "lower", Moves: durableMoves},
	{Name: "spill.fsyncs", Unit: "count", Better: "lower", Det: true, Moves: durableMoves},
	{Name: "spill.fsyncs_per_set", Unit: "ratio", Better: "lower", Moves: durableMoves},
	{Name: "spill.write_amp", Unit: "ratio", Better: "lower", Moves: "no host metric: a guard that batching must not inflate"},
	{Name: "spill.recover_s", Unit: "s", Better: "lower", Moves: "setup_s of a restarted spill-backed server"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower", Moves: "no host metric: traced over untraced wall_s, minus 1"},
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string   `json:"command"`
	Paths      []string   `json:"paths"`
	RunSeconds int        `json:"run_seconds"`
	Workloads  []wlSpec   `json:"workloads"`
	EndToEnd   []metric   `json:"end_to_end"`
	PerLayer   []layerDef `json:"per_layer"`
}

type wlSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// layerDef drops Bound: per-layer metrics carry none.
type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runSeconds is how long one run measures by default, and what
// BENCHMARK.json records.
const runSeconds = 35

// specJSON renders BENCHMARK.json from the tables above; the self-test
// holds the committed file to it.
func specJSON() []byte {
	s := benchSpec{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		s.Workloads = append(s.Workloads, wlSpec{Name: w.name, Why: w.why})
	}
	for _, m := range perLayer {
		s.PerLayer = append(s.PerLayer, layerDef{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(s); err != nil {
		panic(err) // the tables above always encode
	}
	return buf.Bytes()
}

// Command perfbench is the repository benchmark. It drives cxlsim only
// through its public entry points — kvstore.Deploy / Deployment.Warm /
// kvstore.Run, kvstore.RunCluster, and resp.NewServer over
// kvstore.NewRESPBackend with or without a spill.Dir — and measures each
// layer from outside: by timing those calls, by wrapping the interfaces
// the program already accepts (tiering.Daemon, kvstore.OpSource,
// resp.Backend), and by reading existing counters.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//	bash perfbench/run.sh --spec > BENCHMARK.json
//	(cd perfbench && go test .)   # quick self-test of every workload
//
// "all" runs every workload, traced and untraced, and prints every
// metric.
//
// One run repeats workload iterations with the same seed until --seconds
// have passed (at least two), checks every iteration's outputs, and
// prints a report followed by one JSON line: with --trace 0 the
// end-to-end metrics over untraced iterations; with --trace 1 the
// per-layer metrics over traced iterations, which alternate with
// untraced ones so that trace.overhead_frac compares like with like.
// The trace itself is written as Chrome trace-event JSON under --work.
//
// "Host" metrics are measured on the machine running the benchmark;
// "virt" metrics are simulated time. End-to-end metrics per workload:
//
//   - cpu_s: the process's CPU time (user plus system) for one
//     iteration. ycsb: Deploy+Warm+Run; cluster: the RunCluster call;
//     resp: server set-up plus serving the command stream, client
//     included.
//   - setup_s: CPU time before traffic starts, the median over the
//     iterations' own set-ups and extra probes of it. ycsb: Deploy;
//     resp: store build and listen; cluster: a RunCluster call with one
//     op per node, which is all per-node deploy and cache warm-up, since
//     RunCluster's own set-up cannot be timed apart from outside.
//   - kops_per_cpu_s: operations completed per CPU second. ycsb: the
//     measured Run; cluster: the whole call; resp: acknowledged commands
//     over serving.
//   - peak_rss_mb: the process's peak resident set during one
//     iteration, sampled from /proc/self/statm; the mean over iterations.
//
// The gate uses CPU time rather than wall-clock time because on a
// virtual machine the wall clock also counts time the hypervisor gives
// the machine's CPUs to other guests (steal), which swings by tens of
// percent from minute to minute and says nothing about the program;
// the kernel leaves steal out of a process's CPU time. The report
// prints the wall-clock figures beside them (wall_s, host_kops_per_s),
// the host's steal over the run, and the resp-only figures (ops_per_s
// and per-command GET/SET p50/p99, from batch send to that command's
// reply) and error_frac. The result line carries the latencies as resp.*
// layer metrics and error_frac as its failed/attempted counts, since it
// can hold only metrics that every workload measures and that are never
// 0. virt_kops and virt_p99_us, the sims' simulated throughput and p99
// latency, repeat exactly per seed and travel as layer metrics too.
//
// The resp workload's traced iterations also serve a shorter stream from
// a server with a spill tier fsyncing every SET, reopen the directory
// and check that no acknowledged write was lost; that pass feeds the
// spill.* and resp.durable_* layer metrics and none of the end-to-end
// ones, because its speed follows the shared disk's fsync rate, which
// swings several-fold from minute to minute.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workloadDef is one named workload.
type workloadDef struct {
	name, why string
	// setup builds a workload instance for one run; the instance's
	// inputs are generated here, before any clock starts.
	setup func(cfg runConfig) (instance, error)
}

// instance runs iterations of one workload.
type instance interface {
	// iterate runs one iteration; tr is nil on untraced iterations.
	iterate(tr *tracer) (iteration, error)
	// probeSetup performs the workload's set-up alone, tearing it down
	// each time, and returns the durations in seconds: more samples for
	// setup_s than the iterations themselves give.
	probeSetup() ([]float64, error)
}

// iteration is what one iteration measured and checked.
type iteration struct {
	m         map[string]float64
	setups    []float64 // set-up CPU times, seconds
	det       string    // deterministic fingerprint: equal across same-seed iterations
	detTraced string    // the same, for what only traced iterations run
	attempted int
	failed    int
	problems  []string
}

// runConfig carries the flags into a workload.
type runConfig struct {
	seed  int64
	quick bool   // shrink every workload; set only by the self-test
	work  string // scratch directory for spill logs and traces
}

var workloads = []workloadDef{
	{
		name: "ycsb-hotpromote",
		why:  "Fig-5 Hot-Promote cell, YCSB-A: tiering epochs, vmm heat and Zipfian draws dominate; moves tiering.tick_s, vmm.touch_s, workload.next_ns",
		setup: func(cfg runConfig) (instance, error) {
			return newYCSB(cfg), nil
		},
	},
	{
		name: "cluster-interleave",
		why:  "4-node 1:1 interleave RunCluster on one shard, YCSB-B: static placement bypasses tiering; wheel, epoch loop, op loop, solves; moves sim.host_ns_per_event",
		setup: func(cfg runConfig) (instance, error) {
			return newCluster(cfg), nil
		},
	},
	{
		name: "resp",
		why:  "RESP server, 2 conns x 16 deep 50:50 SET/GET: parse, dispatch, backend lock, loopback; traced runs add a pass fsyncing each SET to a spill tier; moves resp.wire_us, spill.fsyncs_per_set",
		setup: func(cfg runConfig) (instance, error) {
			return newRESP(cfg)
		},
	},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or all")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", runSeconds, "measuring time per workload")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from traced iterations")
	work := fs.String("work", filepath.Join(".bench_build", "work"), "scratch directory for spill logs and traces")
	spec := fs.Bool("spec", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *spec {
		stdout.Write(specJSON())
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	var defs []workloadDef
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			defs = append(defs, w)
		}
	}
	if len(defs) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want all or one of %s)\n", *name, workloadNames())
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	cfg := runConfig{seed: *seed, work: *work}
	fmt.Fprintf(stdout, "# env nproc=%d gomaxprocs=%d go=%s os=%s/%s work_fs=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, fsType(*work))

	status := 0
	for _, w := range defs {
		// "all" is for people: it measures both kinds of iteration and
		// prints both metric sets.
		out, err := runWorkload(w, cfg, *seconds, *trace == 1 || *name == "all", stdout)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		want := endToEnd
		if *trace == 1 {
			want = perLayer
		}
		line, err := out.jsonLine(want)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		fmt.Fprintln(stdout, line)
		if !out.correct() {
			status = 1
		}
	}
	return status
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// outcome aggregates a run's iterations.
type outcome struct {
	values    map[string]float64
	attempted int
	failed    int
}

func (o outcome) correct() bool { return o.failed == 0 }

// jsonLine renders the contract's result line for the given metrics.
func (o outcome) jsonLine(want []metric) (string, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]val{}
	for _, m := range want {
		v, ok := o.values[m.Name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", m.Name)
		}
		ms[m.Name] = val{Value: v, Unit: m.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{o.correct(), o.attempted, o.failed, ms})
	return string(b), err
}

// runWorkload repeats iterations until seconds have passed and at least
// two untraced (and, when traced, two traced) iterations are done, then
// checks and aggregates them and prints the report.
func runWorkload(w workloadDef, cfg runConfig, seconds float64, traced bool, stdout io.Writer) (outcome, error) {
	inst, err := w.setup(cfg)
	if err != nil {
		return outcome{}, err
	}

	var tr *tracer
	if traced {
		tr = newTracer(w.name)
	}
	var plain, withTrace []iteration
	steal0 := hostSteal()
	start := time.Now()
	for i := 0; ; i++ {
		useTrace := traced && i%2 == 1
		itTr := tr
		if !useTrace {
			itTr = nil
		}
		it, err := runIteration(inst, itTr, i)
		if err != nil {
			return outcome{}, fmt.Errorf("iteration %d: %w", i, err)
		}
		probes, err := inst.probeSetup()
		if err != nil {
			return outcome{}, fmt.Errorf("iteration %d: set-up probe: %w", i, err)
		}
		it.setups = append(it.setups, probes...)
		fmt.Fprintf(stdout, "# iter %d traced=%t cpu_s=%.4f kops_per_cpu_s=%.4f wall_s=%.4f host_kops_per_s=%.4f setup_s=%.4f peak_rss_mb=%.1f attempted=%d failed=%d\n",
			i, useTrace, it.m["cpu_s"], it.m["kops_per_cpu_s"], it.m["wall_s"], it.m["host_kops_per_s"], median(it.setups), it.m["peak_rss_mb"], it.attempted, it.failed)
		for _, p := range it.problems {
			fmt.Fprintf(stdout, "# iter %d FAIL %s\n", i, p)
		}
		if useTrace {
			withTrace = append(withTrace, it)
		} else {
			plain = append(plain, it)
		}
		enough := len(plain) >= 2 && (!traced || len(withTrace) >= 2)
		if enough && time.Since(start).Seconds() >= seconds {
			break
		}
	}

	elapsed, steal := time.Since(start), hostSteal()-steal0
	out := outcome{values: map[string]float64{}}
	all := append(append([]iteration(nil), plain...), withTrace...)
	for _, it := range all {
		out.attempted += it.attempted
		out.failed += it.failed
	}
	// Same seed, same simulated result: every iteration, traced or not,
	// must reproduce the first one's deterministic fingerprint.
	for i, it := range all[1:] {
		if it.det != all[0].det {
			out.failed++
			fmt.Fprintf(stdout, "# FAIL determinism: iteration %d differs from the first\n#   first: %s\n#   later: %s\n", i+1, all[0].det, it.det)
		}
	}
	for i, it := range withTrace {
		if it.detTraced != withTrace[0].detTraced {
			out.failed++
			fmt.Fprintf(stdout, "# FAIL determinism: traced iteration %d differs from the first\n#   first: %s\n#   later: %s\n", i, withTrace[0].detTraced, it.detTraced)
		}
	}
	aggregate(out.values, plain)
	var setups []float64
	for _, it := range plain {
		setups = append(setups, it.setups...)
	}
	for _, it := range withTrace {
		setups = append(setups, it.setups...)
	}
	out.values["setup_s"] = median(setups)
	if out.attempted > 0 {
		out.values["error_frac"] = float64(out.failed) / float64(out.attempted)
	}
	if traced {
		layer := map[string]float64{}
		aggregate(layer, withTrace)
		for _, m := range perLayer {
			if !m.Plain {
				out.values[m.Name] = layer[m.Name]
			} else if _, ok := out.values[m.Name]; !ok {
				out.values[m.Name] = 0 // a layer this workload bypasses
			}
		}
		out.values["trace.overhead_frac"] = layer["wall_s"]/out.values["wall_s"] - 1
		path := filepath.Join(cfg.work, fmt.Sprintf("trace-%s-seed%d.json", w.name, cfg.seed))
		if err := tr.write(path); err != nil {
			return outcome{}, err
		}
		fmt.Fprintf(stdout, "# trace %s (%d events, %d dropped)\n", path, tr.t.Len(), tr.t.Dropped())
	}
	fmt.Fprintf(stdout, "# host steal %.2f CPU-s over %.1f s of %d CPUs: time the hypervisor gave this machine's CPUs to other guests\n",
		steal, elapsed.Seconds(), runtime.NumCPU())
	report(stdout, w.name, out, len(plain), len(withTrace), traced)
	return out, nil
}

// aggregate stores into dst, for every metric iters measured, its
// median over them (peak_rss_mb: its mean).
func aggregate(dst map[string]float64, iters []iteration) {
	vals := map[string][]float64{}
	for _, it := range iters {
		for k, v := range it.m {
			vals[k] = append(vals[k], v)
		}
	}
	for k, vs := range vals {
		if k == "peak_rss_mb" {
			// Which GC cycle an iteration's peak falls just before moves
			// it by ±15%; over a handful of iterations the mean of such
			// spread is steadier than their median.
			dst[k] = mean(vs)
		} else {
			dst[k] = median(vs)
		}
	}
}

func mean(vs []float64) float64 {
	var t float64
	for _, v := range vs {
		t += v
	}
	return t / float64(len(vs))
}

// report prints every metric the run measured, by name and unit.
func report(w io.Writer, name string, o outcome, plain, traced int, withLayers bool) {
	fmt.Fprintf(w, "# %s: %d untraced + %d traced iterations, attempted=%d failed=%d\n", name, plain, traced, o.attempted, o.failed)
	line := func(m metric) {
		v, ok := o.values[m.Name]
		if !ok {
			fmt.Fprintf(w, "metric %-24s %14s %-7s (not measured on this workload)\n", m.Name, "n/a", m.Unit)
			return
		}
		note := ""
		if m.Det {
			note = ", deterministic"
		}
		if m.Moves != "" {
			note += "; moves " + m.Moves
		}
		fmt.Fprintf(w, "metric %-24s %14.6g %-7s %s is better%s\n", m.Name, v, m.Unit, m.Better, note)
	}
	for _, m := range endToEnd {
		line(m)
	}
	for _, m := range reportOnly {
		line(m)
	}
	if withLayers {
		for _, m := range perLayer {
			line(m)
		}
	}
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// fsType names the filesystem holding dir, from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	case 0x2FC12FC1:
		return "zfs"
	case 0x65735546:
		return "fuse"
	case 0x858458F6:
		return "ramfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

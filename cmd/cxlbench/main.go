// Command cxlbench regenerates the paper's tables and figures on the
// simulated testbed.
//
// Usage:
//
//	cxlbench [-quick] [-seed N] [-parallel N] all
//	cxlbench [-quick] [-seed N] fig3 fig5 table3 ...
//	cxlbench -list
//
// Experiments fan out onto -parallel worker goroutines (default
// GOMAXPROCS); tables are byte-identical at any parallelism. Elapsed
// wall-clock per experiment goes to stderr so piped table/CSV output
// stays clean.
//
// -faults <file> replays a deterministic fault schedule (see
// docs/RELIABILITY.md) inside the serving experiments: fig5 and fig8
// each gain a degraded pass and report degraded-vs-healthy deltas.
//
// -windows turns on fixed virtual-time windowed metric aggregation in
// the experiments that support it (fig8); -slo evaluates an SLO spec
// over those windows, and -report renders every windowed run collected
// across the requested experiments as one self-contained HTML report
// (see docs/OBSERVABILITY.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"cxlsim/internal/cliutil"
	"cxlsim/internal/core"
	"cxlsim/internal/fault"
	"cxlsim/internal/prof"
	"cxlsim/internal/report"
	"cxlsim/internal/slo"
)

func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cxlbench: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func main() {
	quick := flag.Bool("quick", false, "shrink op counts and sweeps for a fast smoke run")
	seed := flag.Int64("seed", 0, "workload seed (0 = default 42)")
	list := flag.Bool("list", false, "list available experiments and exit")
	format := flag.String("format", "table", "output format: table or csv")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "worker goroutines per experiment fan-out (1 = serial)")
	shards := cliutil.Shards(flag.CommandLine)
	faults := flag.String("faults", "", "replay this fault schedule (JSON) in the serving experiments")
	sloPath := flag.String("slo", "", "evaluate this SLO spec (JSON) over windowed experiment cells")
	windowsMs := flag.Float64("windows", 0, "windowed metric aggregation, virtual ms (0 = off; -slo/-report default it to the spec's window_ms or 10)")
	reportPath := flag.String("report", "", "write windowed runs as a self-contained HTML report")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: cxlbench [-quick] [-seed N] [-parallel N] [-faults FILE] all | <experiment>...\n")
		fmt.Fprintf(os.Stderr, "experiments: %s\n", strings.Join(core.Experiments(), " "))
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(core.Experiments(), "\n"))
		return
	}
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *parallel < 1 {
		usageError("-parallel must be >= 1")
	}
	if err := cliutil.CheckShards(*shards); err != nil {
		usageError("%v", err)
	}
	if *format != "table" && *format != "csv" {
		usageError("unknown format %q (want table or csv)", *format)
	}
	if *cpuprofile != "" && *cpuprofile == *memprofile {
		usageError("-cpuprofile and -memprofile cannot share a file")
	}
	var schedule *fault.Schedule
	faultsSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "faults" {
			faultsSet = true
		}
	})
	if faultsSet && *faults == "" {
		usageError("-faults needs a schedule file")
	}
	if *faults != "" {
		s, err := fault.LoadSchedule(*faults)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cxlbench: %v\n", err)
			os.Exit(1)
		}
		schedule = s
	}
	if *windowsMs < 0 {
		usageError("-windows cannot be negative")
	}
	var sloSpec *slo.Spec
	if *sloPath != "" {
		s, err := slo.Load(*sloPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cxlbench: %v\n", err)
			os.Exit(1)
		}
		sloSpec = s
	}
	windowNs := *windowsMs * 1e6
	if windowNs == 0 && (sloSpec != nil || *reportPath != "") {
		if sloSpec != nil && sloSpec.WindowMs > 0 {
			windowNs = sloSpec.WindowMs * 1e6
		} else {
			windowNs = 10 * 1e6
		}
	}
	opt := core.Options{Quick: *quick, Seed: *seed, Parallel: *parallel, Faults: schedule,
		WindowNs: windowNs, SLO: sloSpec, Shards: *shards}

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cxlbench: %v\n", err)
		os.Exit(1)
	}
	defer stopProf()

	ids := args
	if len(args) == 1 && args[0] == "all" {
		ids = core.Experiments()
	}
	var windowedRuns []*report.Run
	for _, id := range ids {
		start := time.Now()
		rep, err := core.Run(id, opt)
		elapsed := time.Since(start)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cxlbench: %v\n", err)
			os.Exit(1)
		}
		windowedRuns = append(windowedRuns, rep.Runs...)
		switch *format {
		case "table":
			rep.WriteTable(os.Stdout)
		case "csv":
			if err := rep.WriteCSV(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "cxlbench: %v\n", err)
				os.Exit(1)
			}
		default:
			fmt.Fprintf(os.Stderr, "cxlbench: unknown format %q\n", *format)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "cxlbench: %s in %s (parallel=%d)\n", id, elapsed.Round(time.Millisecond), *parallel)
	}
	if *reportPath != "" {
		if len(windowedRuns) == 0 {
			fmt.Fprintf(os.Stderr, "cxlbench: -report: no windowed runs collected (only fig8 supports windows)\n")
			os.Exit(1)
		}
		html := func(w io.Writer) error { return report.WriteHTML(w, windowedRuns) }
		if err := report.WriteFile(*reportPath, html); err != nil {
			fmt.Fprintf(os.Stderr, "cxlbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "cxlbench: wrote %s (%d run(s))\n", *reportPath, len(windowedRuns))
	}
}

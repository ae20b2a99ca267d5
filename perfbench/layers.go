package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"cxlsim/internal/kvstore"
	"cxlsim/internal/obs"
	"cxlsim/internal/resp"
	"cxlsim/internal/sim"
	"cxlsim/internal/tiering"
	"cxlsim/internal/vmm"
	"cxlsim/internal/workload"
)

// tracer records the benchmark's own spans in wall-clock time: workload
// iteration → phase → daemon tick or pipelined batch. Spans of one
// iteration carry its number as their "iter" arg. Hot calls are not
// spanned; their wrappers keep count and busy-time aggregates instead.
// Everything stays in memory until write.
type tracer struct {
	t     *obs.Tracer
	name  string
	epoch time.Time
	iter  int
}

// traceEventLimit bounds the trace's memory; events past it are counted
// as dropped.
const traceEventLimit = 200_000

func newTracer(name string) *tracer {
	t := obs.NewTracer()
	t.SetLimit(traceEventLimit)
	return &tracer{t: t, name: name, epoch: time.Now()}
}

// now is wall-clock nanoseconds since the tracer started, on the
// tracer's sim.Time axis.
func (tr *tracer) now() sim.Time { return sim.Time(time.Since(tr.epoch)) }

// span records a span from start to now on track, caused by parent.
// Nil-safe, so untraced code paths call it unconditionally.
func (tr *tracer) span(track, name, parent string, start sim.Time, args map[string]any) {
	if tr == nil {
		return
	}
	if args == nil {
		args = map[string]any{}
	}
	args["iter"] = tr.iter
	args["parent"] = parent
	tr.t.Span(track, name, start, tr.now(), args)
}

// mark returns the current trace time, or 0 on a nil tracer.
func (tr *tracer) mark() sim.Time {
	if tr == nil {
		return 0
	}
	return tr.now()
}

// write saves the trace as Chrome trace-event JSON.
func (tr *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := tr.t.WriteJSON(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runIteration runs one iteration with the Go runtime's allocation and
// GC CPU read around it; tr is nil for an untraced iteration.
func runIteration(inst instance, tr *tracer, i int) (iteration, error) {
	var start sim.Time
	if tr != nil {
		tr.iter = i
		start = tr.now()
	}
	// Start every iteration from a collected heap with its free pages
	// returned to the OS, so one iteration's garbage lands in neither the
	// next one's GC nor its peak memory.
	debug.FreeOSMemory()
	rss, err := startRSSSampler()
	if err != nil {
		return iteration{}, err
	}
	// The runtime updates its CPU-class metrics only at a collection's
	// stop-the-world, so each sample is taken right after a forced
	// collection: the one FreeOSMemory just ran, and one after the
	// iteration, outside its timed phases. The window therefore ends at
	// the iteration's end and always holds exactly one forced collection
	// of its final live heap, the same in every iteration.
	before := readRuntime()
	it, err := inst.iterate(tr)
	peak := rss.stop()
	if err != nil {
		return it, err
	}
	runtime.GC()
	after := readRuntime()
	it.m["peak_rss_mb"] = peak
	it.m["go.alloc_mb"] = (after.allocBytes - before.allocBytes) / (1 << 20)
	it.m["go.gc_cpu_frac"] = (after.gcCPU - before.gcCPU) / (after.totalCPU - before.totalCPU)
	if tr != nil {
		tr.span("iteration", tr.name, "", start, nil)
	}
	return it, nil
}

// rssSampler records the process's peak resident set while it runs.
// Sampling, rather than the kernel's lifetime high-water mark, gives
// each iteration its own peak, so a run reports their median.
type rssSampler struct {
	f    *os.File
	quit chan struct{}
	done chan struct{}
	peak int64 // pages
}

// rssSampleEvery is short against the time any workload's heap stays
// near its peak.
const rssSampleEvery = 2 * time.Millisecond

func startRSSSampler() (*rssSampler, error) {
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		return nil, err
	}
	s := &rssSampler{f: f, quit: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s, nil
}

// sample reads the resident page count, the second field of statm.
func (s *rssSampler) sample() {
	var buf [128]byte
	n, err := s.f.ReadAt(buf[:], 0)
	if n == 0 && err != nil {
		return
	}
	var size, resident int64
	if _, err := fmt.Sscan(string(buf[:n]), &size, &resident); err == nil && resident > s.peak {
		s.peak = resident
	}
}

// stop ends sampling and returns the peak in MB.
func (s *rssSampler) stop() float64 {
	close(s.quit)
	<-s.done
	s.sample()
	s.f.Close()
	return float64(s.peak*int64(os.Getpagesize())) / (1 << 20)
}

// processCPU is the process's CPU time so far, user plus system, all
// threads. With the VM's steal accounting the kernel leaves out of it
// the time the hypervisor ran other guests on this machine's CPUs.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostSteal is the machine's total steal time so far in CPU-seconds, the
// eighth figure of /proc/stat's cpu line (0 where there is none).
func hostSteal() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / userHZ
}

// userHZ is the kernel's USER_HZ, the unit of /proc/stat: 100 on Linux.
const userHZ = 100

type runtimeSample struct {
	allocBytes, gcCPU, totalCPU float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: val(0), gcCPU: val(1), totalCPU: val(2)}
}

// timedDaemon wraps the deployment's tiering daemon, spanning and timing
// each Tick.
type timedDaemon struct {
	inner tiering.Daemon
	tr    *tracer
	phase string // the phase span the ticks belong to
	ticks int
	busy  time.Duration
}

func (d *timedDaemon) Name() string { return d.inner.Name() }

func (d *timedDaemon) Tick(now sim.Time, space *vmm.Space, alloc *vmm.Allocator) tiering.Report {
	start := d.tr.now()
	t0 := time.Now()
	rep := d.inner.Tick(now, space, alloc)
	d.busy += time.Since(t0)
	d.ticks++
	d.tr.span("tiering", "tick", d.phase, start, nil)
	return rep
}

// timedSource wraps the run's operation stream, counting draws and the
// time spent drawing (timer reads included).
type timedSource struct {
	inner kvstore.OpSource
	draws int
	busy  time.Duration
}

func (s *timedSource) Next() workload.Op {
	t0 := time.Now()
	op := s.inner.Next()
	s.busy += time.Since(t0)
	s.draws++
	return op
}

// timedBackend wraps the RESP backend, counting Get and Set calls and
// the time inside them, lock wait included. Connections call it
// concurrently.
type timedBackend struct {
	resp.Backend
	gets, sets   atomic.Int64
	getNs, setNs atomic.Int64
}

func (b *timedBackend) Get(key []byte) ([]byte, bool, error) {
	t0 := time.Now()
	v, ok, err := b.Backend.Get(key)
	b.getNs.Add(int64(time.Since(t0)))
	b.gets.Add(1)
	return v, ok, err
}

func (b *timedBackend) Set(key, val []byte) error {
	t0 := time.Now()
	err := b.Backend.Set(key, val)
	b.setNs.Add(int64(time.Since(t0)))
	b.sets.Add(1)
	return err
}

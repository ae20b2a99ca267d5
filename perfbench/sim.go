package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"cxlsim/internal/kvstore"
	"cxlsim/internal/memsim"
	"cxlsim/internal/obs"
	"cxlsim/internal/stats"
	"cxlsim/internal/workload"
)

// simKeys is the simulated keyspace of both sim workloads, as in Fig. 5
// and cxlycsb.
const simKeys = 1 << 16

// ycsbBench is Fig. 5's Hot-Promote cell under YCSB-A: Deploy, Warm with
// the figure's settings, then an uninstrumented measured Run with 32
// closed-loop simulated clients.
type ycsbBench struct {
	seed                  int64
	warmEpochs, warmDraws int
	ops                   int
}

func newYCSB(cfg runConfig) *ycsbBench {
	y := &ycsbBench{seed: cfg.seed, warmEpochs: 120, warmDraws: 100_000, ops: 300_000}
	if cfg.quick {
		y.warmEpochs, y.warmDraws, y.ops = 8, 10_000, 4_000
	}
	return y
}

// probeSetup times more Deploys.
func (y *ycsbBench) probeSetup() ([]float64, error) {
	return probe(3, func() error {
		_, err := kvstore.Deploy(kvstore.ConfHotPromote, kvstore.DeployOptions{SimKeys: simKeys})
		return err
	})
}

// probe returns the CPU seconds of each of n calls of f.
func probe(n int, f func() error) ([]float64, error) {
	var ds []float64
	for i := 0; i < n; i++ {
		c0 := processCPU()
		if err := f(); err != nil {
			return nil, err
		}
		ds = append(ds, (processCPU() - c0).Seconds())
	}
	return ds, nil
}

func (y *ycsbBench) iterate(tr *tracer) (iteration, error) {
	// Every iteration starts from an empty solve cache, as a fresh
	// process does; otherwise later iterations would replay the first
	// one's solves.
	memsim.ResetSolveCache()
	solves := observeSolves(tr)
	defer memsim.SetSolveObserver(nil)
	hits0, misses0, _ := memsim.SolveCacheStats()
	mix := workload.YCSBA

	c0 := processCPU()
	p0, t0 := tr.mark(), time.Now()
	d, err := kvstore.Deploy(kvstore.ConfHotPromote, kvstore.DeployOptions{SimKeys: simKeys})
	if err != nil {
		return iteration{}, err
	}
	deploy, deployCPU := time.Since(t0), processCPU()-c0
	tr.span("phase", "deploy", "iteration", p0, nil)

	var daemon *timedDaemon
	if tr != nil {
		daemon = &timedDaemon{inner: d.Daemon, tr: tr, phase: "warm"}
		d.Daemon = daemon
	}
	p1, t1 := tr.mark(), time.Now()
	d.Warm(mix, y.warmEpochs, y.warmDraws, y.seed)
	warm := time.Since(t1)
	tr.span("phase", "warm", "iteration", p1, nil)
	var warmTicks time.Duration
	if daemon != nil {
		warmTicks = daemon.busy
		daemon.phase = "run"
	}

	rc := d.RunConfigFor(mix, y.seed)
	rc.Ops = y.ops
	var src *timedSource
	var reg *obs.Registry
	if tr != nil {
		// The same stream Run would build itself, drawn through a
		// counting wrapper; the registry exposes the kernel's event count.
		src = &timedSource{inner: workload.NewYCSB(mix, simKeys, y.seed)}
		rc.Source = src
		reg = obs.NewRegistry()
		rc.Metrics = reg
	}
	p2, t2, c2 := tr.mark(), time.Now(), processCPU()
	res := kvstore.Run(d.Store, d.Alloc, rc)
	runDur, c3 := time.Since(t2), processCPU()
	if tr != nil {
		tr.span("phase", "run", "iteration", p2, map[string]any{
			"next_calls": src.draws, "next_busy_ns": src.busy.Nanoseconds()})
	}

	total := rc.Ops + rc.Ops/4 // measured plus RunConfig's default warm-up ops
	it := iteration{m: map[string]float64{}, attempted: total}
	checkSim(&it, res, rc.Ops)
	it.setups = []float64{deployCPU.Seconds()}
	wall := deploy + warm + runDur
	it.m["cpu_s"] = (c3 - c0).Seconds()
	it.m["kops_per_cpu_s"] = float64(total) / (c3 - c2).Seconds() / 1e3
	it.m["wall_s"] = wall.Seconds()
	it.m["host_kops_per_s"] = float64(total) / runDur.Seconds() / 1e3
	it.m["virt_kops"] = res.ThroughputOpsPerSec / 1e3
	it.m["virt_p99_us"] = res.Latency.Percentile(99) / 1e3
	it.det = simFingerprint(res)

	it.m["kvstore.warm_s"] = warm.Seconds()
	it.m["kvstore.run_s"] = runDur.Seconds()
	it.m["kvstore.ops"] = float64(total)
	it.m["tiering.migrated_mb"] = float64(res.Migrated) / (1 << 20)
	hits1, misses1, _ := memsim.SolveCacheStats()
	if tr != nil {
		it.m["memsim.solves"] = float64(solves.Load())
	}
	if n := (hits1 - hits0) + (misses1 - misses0); n > 0 {
		it.m["memsim.cache_hit_ratio"] = float64(hits1-hits0) / float64(n)
	}
	if tr != nil {
		it.m["tiering.ticks"] = float64(daemon.ticks)
		it.m["tiering.tick_s"] = daemon.busy.Seconds()
		it.m["vmm.touch_s"] = (warm - warmTicks).Seconds()
		it.m["workload.draws"] = float64(src.draws)
		it.m["workload.next_ns"] = float64(src.busy.Nanoseconds()) / float64(src.draws)
		events := familySum(reg.Snapshot(), obs.MetricSimFired)
		it.m["sim.events"] = events
		if events > 0 {
			it.m["sim.host_ns_per_event"] = float64(runDur.Nanoseconds()) / events
		}
	}
	return it, nil
}

// checkSim holds a sim Result to the run it was asked for: every
// requested op measured and none failed.
func checkSim(it *iteration, res kvstore.Result, ops int) {
	if res.Failed > 0 {
		it.failed += int(res.Failed)
		it.problems = append(it.problems, fmt.Sprintf("%d ops failed", res.Failed))
	}
	if got := int(res.Latency.Count()); got != ops {
		short := ops - got
		if short < 0 {
			short = -short
		}
		it.failed += short
		it.problems = append(it.problems, fmt.Sprintf("measured %d ops, want %d", got, ops))
	}
}

// simFingerprint renders every simulated output of a run exactly.
func simFingerprint(r kvstore.Result) string {
	return fmt.Sprint("kops=", r.ThroughputOpsPerSec, " lat=", snapKey(r.Latency), " read=", snapKey(r.ReadLatency),
		" hit=", r.HitRate, " migrated=", r.Migrated, " failed=", r.Failed, " fwd=", r.Forwarded)
}

func snapKey(h *stats.Histogram) string {
	s := h.Snapshot()
	return fmt.Sprint(s.Count, "/", s.Sum, "/", s.Underflow, "/", len(s.Buckets), "/", h.Percentile(50), "/", h.Percentile(99))
}

// observeSolves counts memsim solver passes, on traced iterations only,
// until the observer is removed.
func observeSolves(tr *tracer) *atomic.Int64 {
	var n atomic.Int64
	if tr != nil {
		memsim.SetSolveObserver(func(string, int, memsim.Utilization) { n.Add(1) })
	}
	return &n
}

// clusterBench is a four-node 1:1-interleave cluster under YCSB-B with
// 15% of ops owned by another node, on one shard: the epoch loop,
// boundary merge and timing wheel run inline. With a shard per CPU each
// epoch starts and joins a goroutine per shard, and on a two-CPU machine
// the process's CPU time per iteration then swung by ±25% with where the
// Go scheduler placed them, far past what a gate on cpu_s can hold.
type clusterBench struct {
	seed       int64
	opsPerNode int
}

const clusterNodes = 4

func newCluster(cfg runConfig) *clusterBench {
	c := &clusterBench{seed: cfg.seed, opsPerNode: 200_000}
	if cfg.quick {
		c.opsPerNode = 3_000
	}
	return c
}

func (c *clusterBench) config(opsPerNode int) kvstore.ClusterConfig {
	return kvstore.ClusterConfig{
		Nodes:      clusterNodes,
		Shards:     1,
		Config:     kvstore.ConfInter11,
		Deploy:     kvstore.DeployOptions{SimKeys: simKeys},
		Mix:        workload.YCSBB,
		OpsPerNode: opsPerNode,
		Seed:       c.seed,
		RemoteFrac: 0.15,
	}
}

// probeSetup runs the cluster with one op per node: the call is then
// all per-node Deploy, cache warm-up and engine set-up.
func (c *clusterBench) probeSetup() ([]float64, error) {
	return probe(2, func() error {
		memsim.ResetSolveCache()
		_, err := kvstore.RunCluster(c.config(1))
		return err
	})
}

func (c *clusterBench) iterate(tr *tracer) (iteration, error) {
	memsim.ResetSolveCache()
	solves := observeSolves(tr)
	defer memsim.SetSolveObserver(nil)
	hits0, misses0, _ := memsim.SolveCacheStats()

	cc := c.config(c.opsPerNode)
	p0, t0, c0 := tr.mark(), time.Now(), processCPU()
	res, err := kvstore.RunCluster(cc)
	if err != nil {
		return iteration{}, err
	}
	wall, cpu := time.Since(t0), processCPU()-c0
	tr.span("phase", "run", "iteration", p0, nil)

	perNode := cc.OpsPerNode + cc.OpsPerNode/4
	total := clusterNodes * perNode
	it := iteration{m: map[string]float64{}, attempted: total}
	for _, r := range res.PerNode {
		checkSim(&it, r, cc.OpsPerNode)
	}
	it.m["cpu_s"] = cpu.Seconds()
	it.m["kops_per_cpu_s"] = float64(total) / cpu.Seconds() / 1e3
	it.m["wall_s"] = wall.Seconds()
	it.m["host_kops_per_s"] = float64(total) / wall.Seconds() / 1e3
	it.m["virt_kops"] = res.Merged.ThroughputOpsPerSec / 1e3
	it.m["virt_p99_us"] = res.Merged.Latency.Percentile(99) / 1e3
	nodes := make([]string, len(res.PerNode))
	for i, r := range res.PerNode {
		nodes[i] = simFingerprint(r)
	}
	it.det = fmt.Sprint(simFingerprint(res.Merged), " end=", res.EndNs, " epochs=", res.Epochs, " events=", res.Events, " nodes=", nodes)

	it.m["kvstore.run_s"] = wall.Seconds()
	it.m["kvstore.ops"] = float64(total)
	it.m["kvstore.forwarded"] = float64(res.Merged.Forwarded)
	it.m["tiering.migrated_mb"] = float64(res.Merged.Migrated) / (1 << 20)
	hits1, misses1, _ := memsim.SolveCacheStats()
	if tr != nil {
		it.m["memsim.solves"] = float64(solves.Load())
	}
	if n := (hits1 - hits0) + (misses1 - misses0); n > 0 {
		it.m["memsim.cache_hit_ratio"] = float64(hits1-hits0) / float64(n)
	}
	it.m["sim.events"] = float64(res.Events)
	it.m["sim.host_ns_per_event"] = float64(wall.Nanoseconds()) / float64(res.Events)
	it.m["sim.epochs"] = float64(res.Epochs)
	it.m["sim.host_us_per_epoch"] = float64(wall.Microseconds()) / float64(res.Epochs)
	return it, nil
}

package kvstore

import (
	"testing"

	"cxlsim/internal/workload"
)

// checkQueueBounded asserts that each run loop's dispatch FIFO stayed
// within a constant multiple of the ops that can be queued on it at
// once. Every client of every node has at most one op outstanding, so a
// node's queue holds at most nodes×ClientThreads live ops; compaction
// keeps the slice under twice the live ops, and append's doubling may
// double that once more. Without compaction the backing array grows by
// one slot per op ever issued whenever the queue never fully drains
// (32 clients against 7 server threads never do).
func checkQueueBounded(t *testing.T, loops []*runLoop) {
	t.Helper()
	for i, rl := range loops {
		limit := 4 * len(loops) * rl.rc.ClientThreads
		if c := cap(rl.queue); c > limit {
			t.Errorf("node %d: dispatch queue capacity %d after %d ops, want ≤ %d",
				i, c, rl.totalOps, limit)
		}
	}
}

func TestDispatchQueueBoundedRun(t *testing.T) {
	d, err := Deploy(ConfMMEM, DeployOptions{SimKeys: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	rc := d.RunConfigFor(workload.YCSBB, 42)
	rc.Ops = 200_000
	res, rl := run(d.Store, d.Alloc, rc)
	if got := res.Latency.Count(); got != uint64(rc.Ops) {
		t.Fatalf("measured %d ops, want %d", got, rc.Ops)
	}
	checkQueueBounded(t, []*runLoop{rl})
}

func TestDispatchQueueBoundedCluster(t *testing.T) {
	cc := smallCluster(2, 1)
	cc.OpsPerNode = 100_000
	res, loops, err := runCluster(cc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Merged.Forwarded == 0 {
		t.Fatal("no ops crossed the fabric; the forward producer went unexercised")
	}
	checkQueueBounded(t, loops)
}

// TestDispatchQueueBoundedRetry covers requeue, the producer that puts a
// timed-out op back on the queue after its backoff.
func TestDispatchQueueBoundedRetry(t *testing.T) {
	d, err := Deploy(ConfInter11, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	rc, err := d.RunConfigWithFaults(workload.YCSBC, 42, cxlFaultSchedule())
	if err != nil {
		t.Fatal(err)
	}
	rc.Ops = 50_000
	res, rl := run(d.Store, d.Alloc, rc)
	if res.Retries == 0 {
		t.Fatal("no retries: the requeue producer went unexercised")
	}
	checkQueueBounded(t, []*runLoop{rl})
}

package memsim

import (
	"math"
	"sync"
	"testing"
)

// TestSolveClosedConcurrent hammers SolveClosed from 8 goroutines over
// *shared* Path/Resource values — the re-entrancy contract the parallel
// experiment runners depend on. Run with -race; every goroutine must also
// get the same answer as a serial solve.
func TestSolveClosedConcurrent(t *testing.T) {
	ddr := NewDDRDomain("ddr")
	cxl := NewCXLDevice("cxl")
	mmem := NewPath("MMEM", ddr)
	cpath := NewPath("CXL", cxl)
	flows := func(threads int) []ClosedFlow {
		return []ClosedFlow{
			{Placement: SinglePath(mmem), Mix: Mix2to1, Threads: threads, MLP: 8, AccessBytes: 64},
			{Placement: Interleave(mmem, cpath, 3, 1), Mix: Mix1to1, Threads: threads, MLP: 4, AccessBytes: 64},
		}
	}

	// Serial reference per thread count.
	const goroutines, perG = 8, 25
	want := make([][]FlowResult, goroutines)
	for g := 0; g < goroutines; g++ {
		want[g], _ = SolveClosed(flows(g + 1))
	}

	var wg sync.WaitGroup
	errc := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				res, util := SolveClosed(flows(g + 1))
				for fi := range res {
					if res[fi] != want[g][fi] {
						errc <- "concurrent SolveClosed diverged from serial result"
						return
					}
				}
				if len(util) == 0 {
					errc <- "concurrent SolveClosed returned empty utilization"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for msg := range errc {
		t.Fatal(msg)
	}
}

// TestSolveOpenConcurrent is the open-loop variant of the shared-path
// race test: same resources, 8 goroutines, distinct offered loads.
func TestSolveOpenConcurrent(t *testing.T) {
	ddr := NewDDRDomain("ddr")
	p := NewPath("MMEM", ddr)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			offered := 5 + 5*float64(g)
			for i := 0; i < 50; i++ {
				res, _ := SolveOpen([]OpenFlow{{Placement: SinglePath(p), Mix: ReadOnly, Offered: offered}})
				if res[0].Achieved <= 0 {
					panic("open solve returned non-positive bandwidth")
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSetSolveObserverConcurrent swaps the observer while solves are in
// flight — the atomic.Pointer registration must never race and late
// installs must take effect.
func TestSetSolveObserverConcurrent(t *testing.T) {
	defer SetSolveObserver(nil)
	p := NewPath("MMEM", NewDDRDomain("ddr"))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					SolveOpen([]OpenFlow{{Placement: SinglePath(p), Mix: ReadOnly, Offered: 20}})
				}
			}
		}()
	}
	var mu sync.Mutex
	calls := 0
	for i := 0; i < 200; i++ {
		SetSolveObserver(func(kind string, flows int, util Utilization) {
			mu.Lock()
			calls++
			mu.Unlock()
		})
		SetSolveObserver(nil)
	}
	// A final install must observe subsequent solves.
	SetSolveObserver(func(kind string, flows int, util Utilization) {
		mu.Lock()
		calls++
		mu.Unlock()
	})
	SolveOpen([]OpenFlow{{Placement: SinglePath(p), Mix: ReadOnly, Offered: 20}})
	close(stop)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if calls == 0 {
		t.Fatal("observer installed mid-run was never invoked")
	}
}

// TestSolveCacheHitsMatchMisses verifies a cache hit reproduces the miss
// result exactly — results and the utilization map rebuilt against the
// caller's resource pointers.
func TestSolveCacheHitsMatchMisses(t *testing.T) {
	ResetSolveCache()
	defer ResetSolveCache()

	ddr := NewDDRDomain("ddr")
	cxl := NewCXLDevice("cxl")
	mmem := NewPath("MMEM", ddr)
	cpath := NewPath("CXL", cxl)
	flows := []ClosedFlow{
		{Placement: Interleave(mmem, cpath, 3, 1), Mix: Mix2to1, Threads: 12, MLP: 8, AccessBytes: 64},
	}

	res1, util1 := SolveClosed(flows)
	_, misses, _ := SolveCacheStats()
	if misses == 0 {
		t.Fatal("first solve did not register a cache miss")
	}
	res2, util2 := SolveClosed(flows)
	hits, _, entries := SolveCacheStats()
	if hits == 0 {
		t.Fatal("second identical solve did not hit the cache")
	}
	if entries == 0 {
		t.Fatal("cache reports no entries after a solve")
	}
	for i := range res1 {
		if res1[i] != res2[i] {
			t.Fatalf("cached result %+v != uncached %+v", res2[i], res1[i])
		}
	}
	if len(util1) != len(util2) {
		t.Fatalf("cached utilization has %d resources, uncached %d", len(util2), len(util1))
	}
	for r, u := range util1 {
		if got, ok := util2[r]; !ok || math.Abs(got-u) > 0 {
			t.Fatalf("cached utilization for %s = %v, want %v", r.Name, got, u)
		}
	}
}

// TestSolveCacheSharedAcrossMachines: structurally identical resources
// built twice (fresh pointers, same parameters) must share cache entries
// — the fingerprint is parameter-based, not pointer-based.
func TestSolveCacheSharedAcrossMachines(t *testing.T) {
	ResetSolveCache()
	defer ResetSolveCache()

	build := func() []ClosedFlow {
		p := NewPath("MMEM", NewDDRDomain("ddr"))
		return []ClosedFlow{{Placement: SinglePath(p), Mix: Mix1to1, Threads: 8, MLP: 8, AccessBytes: 64}}
	}
	resA, _ := SolveClosed(build())
	resB, utilB := SolveClosed(build())
	hits, _, _ := SolveCacheStats()
	if hits == 0 {
		t.Fatal("identical machine built twice did not share a cache entry")
	}
	if resA[0] != resB[0] {
		t.Fatalf("cross-machine cached result %+v != original %+v", resB[0], resA[0])
	}
	// The hit's utilization must be keyed by the *second* machine's
	// resource pointers, not the first's.
	if len(utilB) != 1 {
		t.Fatalf("utilization resources = %d, want 1", len(utilB))
	}
}

// TestSolveCacheDistinguishesParams: changing any solver-relevant
// parameter must miss, not alias onto a stale entry.
func TestSolveCacheDistinguishesParams(t *testing.T) {
	ResetSolveCache()
	defer ResetSolveCache()

	p := NewPath("MMEM", NewDDRDomain("ddr"))
	base := ClosedFlow{Placement: SinglePath(p), Mix: Mix2to1, Threads: 8, MLP: 8, AccessBytes: 64}
	r0, _ := SolveClosed([]ClosedFlow{base})

	variant := base
	variant.Threads = 16
	r1, _ := SolveClosed([]ClosedFlow{variant})
	if r0[0] == r1[0] {
		t.Fatal("thread-count change produced identical result — key collision?")
	}

	// Degrade mutates resource parameters; the key must track them.
	p.Resources[0].Degrade(0.5, 1)
	r2, _ := SolveClosed([]ClosedFlow{base})
	if r2[0].Achieved >= r0[0].Achieved {
		t.Fatalf("degraded solve achieved %v, want below undegraded %v (stale cache entry?)",
			r2[0].Achieved, r0[0].Achieved)
	}
}

// TestSolveCacheConcurrent drives identical and distinct solves through
// the cache from many goroutines; run under -race this checks the cache's
// own synchronization.
func TestSolveCacheConcurrent(t *testing.T) {
	ResetSolveCache()
	defer ResetSolveCache()

	p := NewPath("MMEM", NewDDRDomain("ddr"))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				// Half the goroutines share one key; half are unique.
				threads := 4
				if g%2 == 1 {
					threads = 4 + g
				}
				SolveClosed([]ClosedFlow{{
					Placement: SinglePath(p), Mix: ReadOnly,
					Threads: threads, MLP: 8, AccessBytes: 64,
				}})
			}
		}(g)
	}
	wg.Wait()
	hits, misses, _ := SolveCacheStats()
	if hits == 0 || misses == 0 {
		t.Fatalf("expected both hits and misses, got hits=%d misses=%d", hits, misses)
	}
}

package memsim

import (
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"
)

// Solve memoization for closed solves. Tiering epochs and the
// closed-loop application models re-solve identical flow configurations
// thousands of times (every epoch of a steady-state KeyDB run carries the
// same demand), and each SolveClosed is a damped fixed point — hundreds
// of open passes — so a hit saves real work. The cache keys a solve by a
// canonical fingerprint of everything the result depends on — flow
// parameters, placement structure, and the full parameter set of every
// touched resource — so it stays correct across Resource.Degrade and
// across structurally identical but distinct machines (two
// topology.Testbed() instances hit the same entries). Open solves are
// not cached: one pass costs less than encoding the key.

// solveCacheMaxEntries bounds cache memory. When the map fills, it is
// cleared wholesale: the workloads that benefit (sweeps, epoch loops)
// re-fill their working set within one pass, and wholesale clearing
// avoids any eviction bookkeeping on the hit path.
const solveCacheMaxEntries = 1 << 14

// solveCacheEntry stores one solve's outputs. Utilization is kept as a
// vector aligned with the key's canonical resource order so a hit can
// rebuild the map against the *caller's* resource pointers.
type solveCacheEntry struct {
	results []FlowResult
	util    []float64
}

var solveCache = struct {
	mu      sync.RWMutex
	entries map[string]solveCacheEntry
	hits    atomic.Uint64
	misses  atomic.Uint64
}{entries: make(map[string]solveCacheEntry)}

// SolveCacheStats reports cache hits, misses, and current entry count
// since process start (or the last ResetSolveCache).
func SolveCacheStats() (hits, misses uint64, entries int) {
	solveCache.mu.RLock()
	entries = len(solveCache.entries)
	solveCache.mu.RUnlock()
	return solveCache.hits.Load(), solveCache.misses.Load(), entries
}

// ResetSolveCache clears all cached solves and counters. Tests and
// benchmarks use it to measure cached against uncached solves.
func ResetSolveCache() {
	solveCache.mu.Lock()
	defer solveCache.mu.Unlock()
	solveCache.entries = make(map[string]solveCacheEntry)
	solveCache.hits.Store(0)
	solveCache.misses.Store(0)
}

// solveKey is a canonical solve fingerprint plus the touched resources in
// first-encountered order (for rebuilding Utilization on a hit).
type solveKey struct {
	fp        string
	resources []*Resource
}

// keyEncoder builds a fingerprint incrementally, interning resources by
// first-encountered order. The encoding is never parsed — only compared —
// so it just has to be injective: every field is length-delimited or
// fixed-width, and resource back-references use the intern index.
type keyEncoder struct {
	buf   []byte
	index map[*Resource]int
	order []*Resource
}

func (e *keyEncoder) f64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

func (e *keyEncoder) u64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

func (e *keyEncoder) curve(c Curve) {
	e.u64(uint64(len(c.pts)))
	for _, p := range c.pts {
		e.f64(p.R)
		e.f64(p.V)
	}
}

// resource appends a back-reference for a seen resource or the full
// parameter set for a new one. Names are deliberately excluded: results
// depend only on numeric parameters and sharing structure, so two
// identically parameterized machines share entries.
func (e *keyEncoder) resource(r *Resource) {
	if i, ok := e.index[r]; ok {
		e.buf = append(e.buf, 'r')
		e.u64(uint64(i))
		return
	}
	e.index[r] = len(e.order)
	e.order = append(e.order, r)
	e.buf = append(e.buf, 'R')
	e.f64(r.IdleRead)
	e.f64(r.IdleWrite)
	e.f64(r.QueueScale)
	e.f64(r.OverloadRecession)
	e.curve(r.Peak)
	e.curve(r.Knee)
}

func (e *keyEncoder) placement(pl Placement) {
	e.u64(uint64(len(pl)))
	for _, wp := range pl {
		e.f64(wp.Weight)
		e.u64(uint64(len(wp.Path.Resources)))
		for _, r := range wp.Path.Resources {
			e.resource(r)
		}
	}
}

func (e *keyEncoder) mix(m Mix) {
	e.f64(m.ReadFrac)
	e.u64(uint64(m.Pattern))
}

func newKeyEncoder(flowCount int) *keyEncoder {
	return &keyEncoder{
		buf:   make([]byte, 0, 64+flowCount*96),
		index: make(map[*Resource]int, 8),
	}
}

func solveCacheKeyClosed(flows []ClosedFlow) solveKey {
	e := newKeyEncoder(len(flows))
	e.buf = append(e.buf, 'C')
	e.u64(uint64(len(flows)))
	for _, f := range flows {
		e.u64(uint64(f.Threads))
		e.f64(f.MLP)
		e.f64(f.AccessBytes)
		e.f64(f.ThinkNs)
		e.f64(f.FixedGBps)
		e.mix(f.Mix)
		e.placement(f.Placement)
	}
	return solveKey{fp: string(e.buf), resources: e.order}
}

// solveCacheGet returns a cached solve, rebuilding Utilization against
// the key's resource pointers. The results slice is copied so callers
// can't corrupt the entry.
func solveCacheGet(key solveKey) ([]FlowResult, Utilization, bool) {
	solveCache.mu.RLock()
	entry, ok := solveCache.entries[key.fp]
	solveCache.mu.RUnlock()
	if !ok {
		solveCache.misses.Add(1)
		return nil, nil, false
	}
	solveCache.hits.Add(1)
	results := make([]FlowResult, len(entry.results))
	copy(results, entry.results)
	util := make(Utilization, len(key.resources))
	for i, r := range key.resources {
		if i < len(entry.util) {
			util[r] = entry.util[i]
		}
	}
	return results, util, true
}

// solveCachePut stores a solve under key. The utilization map is
// flattened onto the key's canonical resource order.
func solveCachePut(key solveKey, results []FlowResult, util Utilization) {
	entry := solveCacheEntry{
		results: append([]FlowResult(nil), results...),
		util:    make([]float64, len(key.resources)),
	}
	for i, r := range key.resources {
		entry.util[i] = util[r]
	}
	solveCache.mu.Lock()
	if len(solveCache.entries) >= solveCacheMaxEntries {
		solveCache.entries = make(map[string]solveCacheEntry)
	}
	solveCache.entries[key.fp] = entry
	solveCache.mu.Unlock()
}

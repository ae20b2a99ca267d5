// Package vmm is cxlsim's virtual memory manager: page-granularity
// placement of application address spaces across the machine's NUMA/CXL
// nodes, with capacity accounting, access-heat tracking, and page
// migration — the substrate under the kernel tiering policies of §2.3.
//
// Pages are simulated at 2 MiB granularity by default (the kernel's THP /
// hot-page-selection granularity class); at 4 KiB a 512 GB working set
// would need 134M page records for no additional modeling fidelity.
package vmm

import (
	"errors"
	"fmt"
	"slices"

	"cxlsim/internal/sim"
	"cxlsim/internal/topology"
)

// DefaultPageSize is the simulation page granularity.
const DefaultPageSize = 2 << 20

// ErrNoCapacity is returned when an allocation cannot be satisfied by the
// policy's target nodes.
var ErrNoCapacity = errors.New("vmm: no capacity on target nodes")

// Page is one simulated page. Heat is tracked lazily: the raw counter
// (heat) is valid as of the decay epoch stamped in decayedAt, and reads
// through Space.Heat/Touch apply any decay epochs the page has missed.
// That makes Space.DecayHeat O(1) instead of O(pages) — the per-epoch
// full-array sweep was the dominant tiering-epoch cost at production
// working-set sizes.
//
// The record is 24 bytes and holds no pointers, so the garbage collector
// never scans a page table (262,144 records per 512 GB space). The page's
// node is stored as its ID; Space.Node resolves it.
type Page struct {
	LastAccess sim.Time // time of most recent touch

	heat      float64 // decayed access counter, valid as of decayedAt
	decayedAt uint32  // decay epoch heat is valid as of (wraps; see syncHeat)
	node      int32   // node ID; only Allocator.Migrate moves a page (see Space)
}

// Space is one application address space: a flat array of pages.
//
// Allocator.Alloc, Allocator.Migrate and Allocator.FreeSpace are the only
// code that changes len(Pages) or a page's node, and they keep the
// space's per-node page counts equal to a full scan of Pages. Readers
// that need the set of nodes a space lives on (EachNode, NodeShare) use
// those counts in O(nodes) instead of scanning every page.
type Space struct {
	PageSize uint64
	Pages    []Page

	// resident holds the page count per node, indexed by node ID. An
	// entry keeps its node once set, so it also resolves page node IDs.
	resident []residency

	// heatEpoch counts DecayHeat calls modulo 2^32; decayFactor is the
	// factor shared by all epochs a page may still have pending
	// (DecayHeat materializes outstanding decay eagerly on the rare
	// occasion the factor changes, so a single factor always suffices).
	heatEpoch   uint32
	decayFactor float64

	// heatScratch accumulates heat mass per node (indexed by node ID)
	// inside HeatShare, replacing a map operation per page with a slice
	// index. Reused across calls; not safe for concurrent calls on the
	// same Space (a Space is owned by one simulated application).
	heatScratch []float64
}

// residency is one node's share of a space's pages.
type residency struct {
	node  *topology.Node
	pages int
}

// addPages adjusts n's page count by k.
func (s *Space) addPages(n *topology.Node, k int) {
	if n.ID >= len(s.resident) {
		s.resident = slices.Grow(s.resident, n.ID+1-len(s.resident))[:n.ID+1]
	}
	r := &s.resident[n.ID]
	r.node = n
	r.pages += k
}

// NodeID reports the ID of the node holding a page.
func (s *Space) NodeID(page int) int { return int(s.Pages[page].node) }

// Node reports the node holding a page.
func (s *Space) Node(page int) *topology.Node { return s.resident[s.Pages[page].node].node }

// NodeRange reports one more than the highest node ID the space has ever
// placed a page on: every page's NodeID is below it, so a slice of that
// length indexed by node ID covers the whole space.
func (s *Space) NodeRange() int { return len(s.resident) }

// EachNode calls fn for every node holding pages of the space, in node-ID
// order, with its page count. It costs O(nodes), not O(pages).
func (s *Space) EachNode(fn func(n *topology.Node, pages int)) {
	for _, r := range s.resident {
		if r.pages > 0 {
			fn(r.node, r.pages)
		}
	}
}

// NewSpace returns an empty space with the given page size (0 ⇒ default).
func NewSpace(pageSize uint64) *Space {
	if pageSize == 0 {
		pageSize = DefaultPageSize
	}
	return &Space{PageSize: pageSize}
}

// Bytes reports the space's total size.
func (s *Space) Bytes() uint64 { return uint64(len(s.Pages)) * s.PageSize }

// PageFor maps a byte offset to a page index.
func (s *Space) PageFor(offset uint64) int {
	idx := int(offset / s.PageSize)
	if idx < 0 || idx >= len(s.Pages) {
		panic(fmt.Sprintf("vmm: offset %d outside space of %d pages", offset, len(s.Pages)))
	}
	return idx
}

// Touch records accesses to a page: weight is the number of accesses
// (reads+writes) attributed, now stamps recency. Pending lazy decay is
// applied before the weight lands, so interleaved Touch/DecayHeat
// sequences produce bit-identical heat to an eager per-epoch sweep.
func (s *Space) Touch(page int, weight float64, now sim.Time) {
	p := &s.Pages[page]
	s.syncHeat(p)
	p.heat += weight
	p.LastAccess = now
}

// Heat reports a page's decayed access counter (accesses/epoch scale),
// applying any decay epochs the page has missed. Like Touch, it is a
// mutating read (it advances the page's decay stamp) and is not safe for
// concurrent calls on the same Space.
func (s *Space) Heat(page int) float64 {
	p := &s.Pages[page]
	s.syncHeat(p)
	return p.heat
}

// syncHeat applies the decay epochs p has missed. The factor is applied
// by repeated multiplication — not math.Pow — so the result is
// bit-identical to the eager per-epoch sweep it replaces. Epoch stamps
// are 32-bit and the subtraction wraps, so the count of missed epochs
// stays exact across the wrap as long as no page misses 2^32 of them.
func (s *Space) syncHeat(p *Page) {
	d := s.heatEpoch - p.decayedAt
	if d == 0 {
		return
	}
	p.decayedAt = s.heatEpoch
	if p.heat == 0 {
		return // 0 × factor is 0 for any epoch count
	}
	f := s.decayFactor
	for ; d > 0; d-- {
		p.heat *= f
		if p.heat == 0 {
			break // underflowed (or factor 0): stays exactly zero
		}
	}
}

// DecayHeat ages all heat counters by factor (0..1) — called once per
// epoch so heat approximates an exponentially-weighted access rate.
// Decay is lazy: this bumps a per-space epoch counter in O(1), and pages
// apply factor^Δepochs when next read through Touch/Heat. Calling with a
// different factor than the previous epoch first materializes all
// outstanding decay (an O(pages) sweep), so mixed-factor schedules stay
// exact; steady epoch loops use one factor and never sweep. A change
// before the first epoch sweeps too, finding nothing pending: the epoch
// counter wraps, so zero does not mean that no epoch has passed.
func (s *Space) DecayHeat(factor float64) {
	if factor < 0 || factor > 1 {
		panic("vmm: decay factor outside [0,1]")
	}
	if factor != s.decayFactor {
		s.FlushHeat()
	}
	s.decayFactor = factor
	s.heatEpoch++
}

// FlushHeat materializes all pending lazy decay so every page's raw
// counter is current. Epoch loops never need this; it exists for factor
// changes and for tests that compare against an eager sweep.
func (s *Space) FlushHeat() {
	for i := range s.Pages {
		s.syncHeat(&s.Pages[i])
	}
}

// NodeShare reports the fraction of pages on each node (capacity split).
// The returned map is freshly allocated (callers may hold it across
// epochs); it is built from the per-node page counts in O(nodes).
func (s *Space) NodeShare() map[*topology.Node]float64 {
	out := map[*topology.Node]float64{}
	if len(s.Pages) == 0 {
		return out
	}
	inv := 1 / float64(len(s.Pages))
	s.EachNode(func(n *topology.Node, pages int) {
		out[n] = float64(pages) * inv
	})
	return out
}

// HeatShare reports the fraction of recent accesses (by heat mass)
// served from each node — the access split that determines the app's
// effective memory placement. Like NodeShare, the returned map is fresh
// but the per-page accumulation reuses the space's scratch.
func (s *Space) HeatShare() map[*topology.Node]float64 {
	if len(s.heatScratch) < len(s.resident) {
		s.heatScratch = make([]float64, len(s.resident))
	}
	mass := s.heatScratch[:len(s.resident)]
	for i := range s.Pages {
		p := &s.Pages[i]
		s.syncHeat(p)
		mass[p.node] += p.heat
	}
	total := 0.0
	s.EachNode(func(n *topology.Node, _ int) { total += mass[n.ID] })
	var out map[*topology.Node]float64
	if total == 0 {
		out = s.NodeShare()
	} else {
		out = make(map[*topology.Node]float64, len(s.resident))
		s.EachNode(func(n *topology.Node, _ int) { out[n] = mass[n.ID] / total })
	}
	clear(mass)
	return out
}

// Allocator tracks node capacity and performs allocation and migration.
type Allocator struct {
	used []uint64 // node ID → bytes
}

// NewAllocator returns an allocator over the machine's nodes.
func NewAllocator(m *topology.Machine) *Allocator {
	return &Allocator{used: make([]uint64, len(m.Nodes))}
}

// Used reports bytes allocated on a node.
func (a *Allocator) Used(n *topology.Node) uint64 { return a.used[n.ID] }

// Free reports remaining bytes on a node.
func (a *Allocator) Free(n *topology.Node) uint64 {
	u := a.used[n.ID]
	if u >= n.Capacity {
		return 0
	}
	return n.Capacity - u
}

// Alloc grows the space by size bytes placed according to the policy.
// On ErrNoCapacity the space is left unchanged. The page table grows
// once, after placement has succeeded.
func (a *Allocator) Alloc(s *Space, size uint64, pol Policy) error {
	pages := int((size + s.PageSize - 1) / s.PageSize)
	placed, err := pol.place(a, s.PageSize, pages)
	if err != nil {
		return err
	}
	s.Pages = slices.Grow(s.Pages, len(placed))
	for _, n := range placed {
		a.used[n.ID] += s.PageSize
		s.addPages(n, 1)
		// New pages are born current: decay epochs before allocation do
		// not apply to them.
		s.Pages = append(s.Pages, Page{decayedAt: s.heatEpoch, node: int32(n.ID)})
	}
	return nil
}

// FreeSpace releases every page of the space back to its nodes and
// truncates the space.
func (a *Allocator) FreeSpace(s *Space) {
	s.EachNode(func(n *topology.Node, pages int) {
		a.release(n, uint64(pages)*s.PageSize)
	})
	clear(s.resident)
	s.Pages = s.Pages[:0]
}

func (a *Allocator) release(n *topology.Node, bytes uint64) {
	if a.used[n.ID] < bytes {
		panic("vmm: releasing more than allocated")
	}
	a.used[n.ID] -= bytes
}

// Migrate moves one page of the space to the destination node, updating
// capacity accounting. Returns ErrNoCapacity when dst is full.
func (a *Allocator) Migrate(s *Space, page int, dst *topology.Node) error {
	p := &s.Pages[page]
	if int(p.node) == dst.ID {
		return nil
	}
	if a.Free(dst) < uint64(s.PageSize) {
		return ErrNoCapacity
	}
	src := s.resident[p.node].node
	a.release(src, s.PageSize)
	a.used[dst.ID] += s.PageSize
	s.addPages(src, -1)
	s.addPages(dst, 1)
	p.node = int32(dst.ID)
	return nil
}

// Policy decides where new pages land.
type Policy interface {
	place(a *Allocator, pageSize uint64, pages int) ([]*topology.Node, error)
}

// Bind places every page on the listed nodes, filling them in order —
// the numactl --membind analogue (§4.3 binds KeyDB wholly to MMEM or CXL).
type Bind struct {
	Nodes []*topology.Node
}

func (b Bind) place(a *Allocator, pageSize uint64, pages int) ([]*topology.Node, error) {
	return fillFirst(a, b.Nodes, pageSize, pages)
}

// Preferred fills Primary first, then overflows to Fallback nodes — the
// default kernel first-touch-with-fallback behaviour.
type Preferred struct {
	Primary  []*topology.Node
	Fallback []*topology.Node
}

func (p Preferred) place(a *Allocator, pageSize uint64, pages int) ([]*topology.Node, error) {
	return fillFirst(a, append(append([]*topology.Node{}, p.Primary...), p.Fallback...), pageSize, pages)
}

// InterleaveNM is the tiered-memory N:M interleave policy (§2.3): of
// every N+M pages, N go to the Top nodes (round-robin) and M to the Low
// nodes. A 4:1 ratio directs 80% of pages (and, for uniformly accessed
// data, 80% of traffic) to the top tier.
type InterleaveNM struct {
	Top, Low []*topology.Node
	N, M     int
}

func (il InterleaveNM) place(a *Allocator, pageSize uint64, pages int) ([]*topology.Node, error) {
	if il.N < 0 || il.M < 0 || il.N+il.M == 0 {
		return nil, fmt.Errorf("vmm: invalid interleave ratio %d:%d", il.N, il.M)
	}
	if len(il.Top) == 0 && il.N > 0 || len(il.Low) == 0 && il.M > 0 {
		return nil, errors.New("vmm: interleave tier with no nodes")
	}
	out := make([]*topology.Node, 0, pages)
	// Tentative placement must be atomic: track hypothetical usage.
	tentative := make([]uint64, len(a.used))
	free := func(n *topology.Node) uint64 {
		f := a.Free(n)
		t := tentative[n.ID]
		if t >= f {
			return 0
		}
		return f - t
	}
	pick := func(tier []*topology.Node, rr int) (*topology.Node, bool) {
		for k := 0; k < len(tier); k++ {
			n := tier[(rr+k)%len(tier)]
			if free(n) >= pageSize {
				return n, true
			}
		}
		return nil, false
	}
	topRR, lowRR := 0, 0
	cycle := il.N + il.M
	for i := 0; i < pages; i++ {
		var n *topology.Node
		var ok bool
		if i%cycle < il.N {
			n, ok = pick(il.Top, topRR)
			topRR++
		} else {
			n, ok = pick(il.Low, lowRR)
			lowRR++
		}
		if !ok {
			return nil, ErrNoCapacity
		}
		tentative[n.ID] += pageSize
		out = append(out, n)
	}
	return out, nil
}

// fillFirst places pages on nodes in order, moving on when each fills.
func fillFirst(a *Allocator, nodes []*topology.Node, pageSize uint64, pages int) ([]*topology.Node, error) {
	if len(nodes) == 0 {
		return nil, errors.New("vmm: policy with no nodes")
	}
	out := make([]*topology.Node, 0, pages)
	tentative := make([]uint64, len(a.used))
	ni := 0
	for i := 0; i < pages; i++ {
		for ni < len(nodes) {
			n := nodes[ni]
			if a.Free(n)-min64(tentative[n.ID], a.Free(n)) >= pageSize {
				tentative[n.ID] += pageSize
				out = append(out, n)
				break
			}
			ni++
		}
		if len(out) != i+1 {
			return nil, ErrNoCapacity
		}
	}
	return out, nil
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

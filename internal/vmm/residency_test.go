package vmm

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"cxlsim/internal/topology"
)

// scanCounts is the reference the per-node counts replace: a full page
// scan, indexed by node ID.
func scanCounts(s *Space, nodes int) []int {
	out := make([]int, nodes)
	for i := range s.Pages {
		out[s.NodeID(i)]++
	}
	return out
}

// spaceCounts reads the maintained counts through EachNode.
func spaceCounts(t *testing.T, s *Space, nodes int) []int {
	t.Helper()
	out := make([]int, nodes)
	last := -1
	s.EachNode(func(n *topology.Node, pages int) {
		if n.ID <= last {
			t.Fatalf("EachNode visited node %d after node %d", n.ID, last)
		}
		if pages <= 0 {
			t.Fatalf("EachNode visited node %d with %d pages", n.ID, pages)
		}
		last = n.ID
		out[n.ID] = pages
	})
	return out
}

// scanNodeShare is NodeShare's former per-page formula: sum 1 per page
// into a per-node float accumulator, then scale by 1/len(Pages).
func scanNodeShare(s *Space) map[*topology.Node]float64 {
	out := map[*topology.Node]float64{}
	if len(s.Pages) == 0 {
		return out
	}
	mass := map[*topology.Node]float64{}
	for i := range s.Pages {
		mass[s.Node(i)]++
	}
	inv := 1 / float64(len(s.Pages))
	for n, m := range mass {
		out[n] = m * inv
	}
	return out
}

func pageNodes(s *Space) []*topology.Node {
	out := make([]*topology.Node, len(s.Pages))
	for i := range s.Pages {
		out[i] = s.Node(i)
	}
	return out
}

func usedBytes(a *Allocator, m *topology.Machine) []uint64 {
	out := make([]uint64, len(m.Nodes))
	for _, n := range m.Nodes {
		out[n.ID] = a.Used(n)
	}
	return out
}

// randomNodes returns a non-empty random subset of nodes in random order.
func randomNodes(rng *rand.Rand, nodes []*topology.Node) []*topology.Node {
	perm := rng.Perm(len(nodes))
	out := make([]*topology.Node, 1+rng.Intn(len(nodes)))
	for i := range out {
		out[i] = nodes[perm[i]]
	}
	return out
}

func randomPolicy(rng *rand.Rand, m *topology.Machine) Policy {
	switch rng.Intn(3) {
	case 0:
		return Bind{Nodes: randomNodes(rng, m.Nodes)}
	case 1:
		return Preferred{Primary: randomNodes(rng, m.Nodes), Fallback: randomNodes(rng, m.Nodes)}
	default:
		return InterleaveNM{
			Top: randomNodes(rng, m.Nodes),
			Low: randomNodes(rng, m.Nodes),
			N:   1 + rng.Intn(4),
			M:   rng.Intn(4),
		}
	}
}

// TestPropertyResidencyMatchesScan drives random Alloc (Bind, Preferred,
// InterleaveNM), Migrate and FreeSpace sequences over two spaces sharing
// one allocator. 8 GiB pages make the Table-1 machine 192 pages, so
// allocations regularly run out of capacity. After every step the
// per-node counts must equal a full page scan, NodeShare must equal the
// per-page formula bit for bit, the allocator's usage must equal the
// pages' bytes, and a failed Alloc must leave the space's pages, counts
// and the allocator's usage unchanged.
func TestPropertyResidencyMatchesScan(t *testing.T) {
	const pageSize = 8 << 30
	m := testMachine()
	nodes := len(m.Nodes)
	var failedAllocs, okAllocs, migrations int
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := NewAllocator(m)
		spaces := []*Space{NewSpace(pageSize), NewSpace(pageSize)}
		for step := 0; step < 300; step++ {
			s := spaces[rng.Intn(len(spaces))]
			switch op := rng.Intn(10); {
			case op < 5:
				pagesBefore := pageNodes(s)
				countsBefore := spaceCounts(t, s, nodes)
				usedBefore := usedBytes(a, m)
				size := uint64(1+rng.Intn(48)) * pageSize
				err := a.Alloc(s, size, randomPolicy(rng, m))
				switch {
				case errors.Is(err, ErrNoCapacity):
					failedAllocs++
					if !slices.Equal(pageNodes(s), pagesBefore) {
						t.Fatalf("seed %d step %d: failed Alloc changed the pages", seed, step)
					}
					if !slices.Equal(spaceCounts(t, s, nodes), countsBefore) {
						t.Fatalf("seed %d step %d: failed Alloc changed the counts", seed, step)
					}
					if !slices.Equal(usedBytes(a, m), usedBefore) {
						t.Fatalf("seed %d step %d: failed Alloc changed Used", seed, step)
					}
				case err != nil:
					t.Fatalf("seed %d step %d: Alloc: %v", seed, step, err)
				default:
					okAllocs++
				}
			case op < 9:
				if len(s.Pages) > 0 {
					if a.Migrate(s, rng.Intn(len(s.Pages)), m.Nodes[rng.Intn(nodes)]) == nil {
						migrations++
					}
				}
			default:
				a.FreeSpace(s)
			}

			used := make([]uint64, nodes)
			for _, sp := range spaces {
				want := scanCounts(sp, nodes)
				if got := spaceCounts(t, sp, nodes); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: counts %v, page scan %v", seed, step, got, want)
				}
				for id, c := range want {
					used[id] += uint64(c) * pageSize
				}
				got, want2 := sp.NodeShare(), scanNodeShare(sp)
				if len(got) != len(want2) {
					t.Fatalf("seed %d step %d: NodeShare has %d nodes, scan %d", seed, step, len(got), len(want2))
				}
				for n, w := range want2 {
					if g, ok := got[n]; !ok || math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("seed %d step %d: NodeShare[%s] = %x, scan %x", seed, step, n.Name, g, w)
					}
				}
			}
			if got := usedBytes(a, m); !slices.Equal(got, used) {
				t.Fatalf("seed %d step %d: Used %v, pages hold %v", seed, step, got, used)
			}
		}
	}
	if failedAllocs == 0 || okAllocs == 0 || migrations == 0 {
		t.Fatalf("sequence too tame: %d failed allocs, %d ok, %d migrations", failedAllocs, okAllocs, migrations)
	}
}

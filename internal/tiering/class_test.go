package tiering

import (
	"testing"

	"cxlsim/internal/topology"
	"cxlsim/internal/vmm"
)

// countingHealth marks a set of nodes degraded and counts how often each
// node is asked about.
type countingHealth struct {
	degraded map[*topology.Node]bool
	asked    map[*topology.Node]int
}

func (c *countingHealth) Degraded(n *topology.Node) bool {
	c.asked[n]++
	return c.degraded[n]
}

// spaceOn allocates perNode pages on each listed node, in order.
func spaceOn(t *testing.T, alloc *vmm.Allocator, perNode int, nodes ...*topology.Node) *vmm.Space {
	t.Helper()
	s := vmm.NewSpace(0)
	for _, n := range nodes {
		if err := alloc.Alloc(s, uint64(perNode)*vmm.DefaultPageSize, vmm.Bind{Nodes: []*topology.Node{n}}); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestClassTable checks the per-tick node classes against the tier
// lists: a node in both tiers is slow, a degraded slow node is evacuated,
// a node in neither tier (including one above every tier node's ID) is
// left alone, and empty tiers classify nothing. Every page of the space
// must index the table.
func TestClassTable(t *testing.T) {
	m := topology.Testbed()
	dram0, dram1 := m.DRAMNodes(0)[0], m.DRAMNodes(1)[0]
	cxl0, cxl1 := m.CXLNodes()[0], m.CXLNodes()[1]
	if cxl1.ID <= dram1.ID || cxl1.ID <= dram0.ID {
		t.Fatalf("testbed node IDs changed: want cxl1 (%d) above both DRAM nodes", cxl1.ID)
	}
	for _, tc := range []struct {
		name     string
		tiers    Tiers
		degraded []*topology.Node
		pages    []*topology.Node // one run of pages per node
		want     []nodeClass      // class of each run's node
	}{
		{
			name:  "node in both tiers is slow",
			tiers: Tiers{Fast: []*topology.Node{dram0, cxl0}, Slow: []*topology.Node{cxl0}},
			pages: []*topology.Node{dram0, cxl0},
			want:  []nodeClass{classFast, classSlow},
		},
		{
			name:     "degraded slow node",
			tiers:    Tiers{Fast: []*topology.Node{dram0}, Slow: []*topology.Node{cxl0, cxl1}},
			degraded: []*topology.Node{cxl1},
			pages:    []*topology.Node{dram0, cxl0, cxl1},
			want:     []nodeClass{classFast, classSlow, classSlowDegraded},
		},
		{
			name:     "degraded fast node stays fast",
			tiers:    Tiers{Fast: []*topology.Node{dram0}, Slow: []*topology.Node{cxl0}},
			degraded: []*topology.Node{dram0},
			pages:    []*topology.Node{dram0, cxl0},
			want:     []nodeClass{classFast, classSlow},
		},
		{
			name:  "node in neither tier",
			tiers: Tiers{Fast: []*topology.Node{dram0}, Slow: []*topology.Node{cxl0}},
			pages: []*topology.Node{dram1, dram0},
			want:  []nodeClass{classOther, classFast},
		},
		{
			name:  "node above every tier node",
			tiers: Tiers{Fast: []*topology.Node{dram0}, Slow: []*topology.Node{dram1}},
			pages: []*topology.Node{dram1, cxl1},
			want:  []nodeClass{classSlow, classOther},
		},
		{
			name:  "empty tiers",
			pages: []*topology.Node{dram0, cxl1},
			want:  []nodeClass{classOther, classOther},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const perNode = 16
			space := spaceOn(t, vmm.NewAllocator(m), perNode, tc.pages...)
			h := &countingHealth{degraded: map[*topology.Node]bool{}, asked: map[*topology.Node]int{}}
			for _, n := range tc.degraded {
				h.degraded[n] = true
			}
			tc.tiers.Health = h
			// Start from a dirty, too-short scratch: the build must size
			// and clear it.
			tab := tc.tiers.classes(classTable{classSlowDegraded}, space)
			if len(tab) < space.NodeRange() {
				t.Fatalf("table covers %d node IDs, space range is %d", len(tab), space.NodeRange())
			}
			for i := range space.Pages {
				if got, want := tab[space.NodeID(i)], tc.want[i/perNode]; got != want {
					t.Fatalf("page %d on %s: class %d, want %d", i, space.Node(i).Name, got, want)
				}
			}
			for _, n := range tc.tiers.Slow {
				if h.asked[n] != 1 {
					t.Fatalf("Health asked about slow node %s %d times in one build, want 1", n.Name, h.asked[n])
				}
			}
		})
	}
}

// TestClassTableCoversTierNodesOutsideSpace: a tier node the space has no
// page on yet, with an ID above the space's node range, must still be
// in the table, since a migration during the tick can move pages there.
func TestClassTableCoversTierNodesOutsideSpace(t *testing.T) {
	m := topology.Testbed()
	dram0, cxl1 := m.DRAMNodes(0)[0], m.CXLNodes()[1]
	space := spaceOn(t, vmm.NewAllocator(m), 4, dram0)
	tab := Tiers{Fast: []*topology.Node{dram0}, Slow: []*topology.Node{cxl1}}.classes(nil, space)
	if len(tab) <= cxl1.ID || tab[cxl1.ID] != classSlow {
		t.Fatalf("table %v does not classify slow node %d", tab, cxl1.ID)
	}
}

// TestDaemonsLeaveUntieredPages runs every daemon over a space with hot
// pages on a node above every tier node, and with empty tiers: no index
// may go out of range, pages off the tiers never move, and hot slow-tier
// pages are still promoted.
func TestDaemonsLeaveUntieredPages(t *testing.T) {
	m := topology.Testbed()
	dram0, dram1 := m.DRAMNodes(0)[0], m.DRAMNodes(1)[0]
	cxl1 := m.CXLNodes()[1]
	for _, tiers := range []Tiers{
		{Fast: []*topology.Node{dram0}, Slow: []*topology.Node{dram1}},
		{},
	} {
		for _, d := range []Daemon{
			&HotPromote{Tiers: tiers, RateLimitBytes: 64 * vmm.DefaultPageSize},
			&NUMABalancing{Tiers: tiers, ScanFraction: 1, RecencyWindow: 1 << 40},
			&TPP{Tiers: tiers},
		} {
			alloc := vmm.NewAllocator(m)
			space := spaceOn(t, alloc, 8, cxl1, dram1)
			for i := range space.Pages {
				space.Touch(i, 100, 1)
			}
			d.Tick(1, space, alloc)
			for i := range space.Pages {
				want := dram1
				if i < 8 {
					want = cxl1
				} else if len(tiers.Slow) > 0 {
					want = dram0 // the hot slow pages are promoted
				}
				if space.Node(i) != want {
					t.Fatalf("%s with %d fast/%d slow nodes left page %d on %s, want %s",
						d.Name(), len(tiers.Fast), len(tiers.Slow), i, space.Node(i).Name, want.Name)
				}
			}
		}
	}
}

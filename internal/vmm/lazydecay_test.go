package vmm

import (
	"math"
	"math/rand"
	"testing"

	"cxlsim/internal/topology"
)

// eagerSpace is the reference heat model the lazy implementation
// replaced: a plain per-page counter array with an O(pages) multiply
// sweep on every decay epoch.
type eagerSpace struct {
	heat []float64
}

func (e *eagerSpace) touch(page int, weight float64) { e.heat[page] += weight }

func (e *eagerSpace) decay(factor float64) {
	for i := range e.heat {
		e.heat[i] *= factor
	}
}

// TestLazyDecayMatchesEagerSweep drives a lazy Space and the eager
// reference through the same randomized interleaving of touches and
// decay epochs — including factor changes, which force the lazy path to
// materialize outstanding decay — and checks every page's heat agrees
// within 1e-9 at every decay boundary and at the end.
func TestLazyDecayMatchesEagerSweep(t *testing.T) {
	const pages = 256
	rng := rand.New(rand.NewSource(7))

	s := NewSpace(0)
	s.Pages = make([]Page, pages)
	ref := &eagerSpace{heat: make([]float64, pages)}

	factors := []float64{0.5, 0.5, 0.5, 0.9, 0.9, 0.25, 1, 0, 0.5}
	compare := func(step int) {
		t.Helper()
		for i := 0; i < pages; i++ {
			got, want := s.Heat(i), ref.heat[i]
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("step %d page %d: lazy heat %g, eager heat %g", step, i, got, want)
			}
		}
	}

	step := 0
	for _, f := range factors {
		// A burst of touches on a random subset: many pages skip whole
		// decay epochs, accumulating pending lazy decay.
		for j := 0; j < pages/4; j++ {
			pg := rng.Intn(pages)
			w := float64(1 + rng.Intn(8))
			s.Touch(pg, w, 0)
			ref.touch(pg, w)
			step++
		}
		s.DecayHeat(f)
		ref.decay(f)
		step++
		// Read a few pages between epochs (Heat is a mutating read that
		// advances the decay stamp — it must not double-apply decay).
		for j := 0; j < 8; j++ {
			pg := rng.Intn(pages)
			if math.Abs(s.Heat(pg)-ref.heat[pg]) > 1e-9 {
				t.Fatalf("step %d page %d: mid-epoch heat diverged", step, pg)
			}
		}
		compare(step)
	}

	// Let many epochs pile up with no reads at all, then compare: the
	// factor^Δepochs catch-up must match Δ eager sweeps.
	for k := 0; k < 20; k++ {
		s.DecayHeat(0.5)
		ref.decay(0.5)
	}
	compare(step + 20)

	// FlushHeat materializes everything; a second compare must still hold.
	s.FlushHeat()
	compare(step + 21)
}

// TestLazyDecayBitIdenticalSingleFactor: with one factor throughout (the
// steady epoch-loop case) the lazy catch-up is repeated multiplication —
// the same float ops in the same order as the eager sweep — so the match
// is exact, not just within tolerance.
func TestLazyDecayBitIdenticalSingleFactor(t *testing.T) {
	const pages = 64
	rng := rand.New(rand.NewSource(11))

	s := NewSpace(0)
	s.Pages = make([]Page, pages)
	ref := &eagerSpace{heat: make([]float64, pages)}

	for epoch := 0; epoch < 50; epoch++ {
		for j := 0; j < 16; j++ {
			pg := rng.Intn(pages)
			w := rng.Float64() * 10
			s.Touch(pg, w, 0)
			ref.touch(pg, w)
		}
		s.DecayHeat(0.5)
		ref.decay(0.5)
	}
	for i := 0; i < pages; i++ {
		if got, want := s.Heat(i), ref.heat[i]; got != want {
			t.Fatalf("page %d: lazy heat %x, eager heat %x — expected bit-identical", i, got, want)
		}
	}
}

// TestLateAllocatedPagesSkipPriorEpochs: pages allocated after decay
// epochs have passed must not have those epochs applied retroactively.
func TestLateAllocatedPagesSkipPriorEpochs(t *testing.T) {
	m := testMachine()
	a := NewAllocator(m)
	s := NewSpace(0)
	if err := a.Alloc(s, 4*s.PageSize, Bind{Nodes: []*topology.Node{m.DRAMNodes(0)[0]}}); err != nil {
		t.Fatal(err)
	}
	s.Touch(0, 8, 0)
	s.DecayHeat(0.5)
	s.DecayHeat(0.5)

	if err := a.Alloc(s, s.PageSize, Bind{Nodes: []*topology.Node{m.DRAMNodes(0)[0]}}); err != nil {
		t.Fatal(err)
	}
	late := len(s.Pages) - 1
	s.Touch(late, 4, 0)
	if got := s.Heat(late); got != 4 {
		t.Fatalf("late page heat = %g, want 4 (prior epochs must not apply)", got)
	}
	if got := s.Heat(0); got != 2 {
		t.Fatalf("old page heat = %g, want 2", got)
	}
}

// TestLazyDecayAcrossEpochWrap starts the 32-bit epoch counter three
// epochs before it wraps and interleaves touches, reads and decay epochs
// across the wrap, with a factor change exactly at epoch 0. Heat must be
// bit-identical to the eager sweep: missed-epoch counts are computed
// modulo 2^32, and the factor change must still flush pending decay.
func TestLazyDecayAcrossEpochWrap(t *testing.T) {
	const pages = 64
	rng := rand.New(rand.NewSource(13))

	s := NewSpace(0)
	s.heatEpoch = math.MaxUint32 - 2
	s.Pages = make([]Page, pages)
	for i := range s.Pages {
		s.Pages[i].decayedAt = s.heatEpoch
	}
	ref := &eagerSpace{heat: make([]float64, pages)}
	for i := 0; i < pages; i++ {
		w := float64(1 + rng.Intn(100))
		s.Touch(i, w, 0)
		ref.touch(i, w)
	}

	factors := []float64{0.5, 0.5, 0.5, 0.75, 0.75, 0.5, 0.5, 0.5}
	for e, f := range factors {
		// Touch and read a few pages; the rest skip epochs, the first
		// half of the space skipping every one until the final compare.
		for j := 0; j < 8; j++ {
			pg := pages/2 + rng.Intn(pages/2)
			w := rng.Float64() * 10
			s.Touch(pg, w, 0)
			ref.touch(pg, w)
			pg = pages/2 + rng.Intn(pages/2)
			if got, want := s.Heat(pg), ref.heat[pg]; got != want {
				t.Fatalf("epoch %d page %d: lazy heat %x, eager heat %x", e, pg, got, want)
			}
		}
		s.DecayHeat(f)
		ref.decay(f)
	}
	if s.heatEpoch != uint32(len(factors)-3) {
		t.Fatalf("epoch counter %d, want it wrapped to %d", s.heatEpoch, len(factors)-3)
	}
	for i := 0; i < pages; i++ {
		if got, want := s.Heat(i), ref.heat[i]; got != want {
			t.Fatalf("page %d: lazy heat %x, eager heat %x — expected bit-identical", i, got, want)
		}
	}
}

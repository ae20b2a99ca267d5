package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// The wheel-specific tests drive the structure through Engine, where they
// double as ordering tests, plus a few direct structural checks.

func TestWheelFarFutureOverflow(t *testing.T) {
	e := NewEngine()
	var got []Time
	rec := func(now Time) { got = append(got, now) }
	// One event beyond the 2^48-tick horizon, one far (cascade), one near.
	e.At(4e15, rec)
	e.At(7e9, rec)
	e.At(3, rec)
	e.At(4e15, rec) // equal-time tie in overflow; FIFO by seq
	e.Run()
	want := []Time{3, 7e9, 4e15, 4e15}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fire order %v, want %v", got, want)
	}
}

func TestWheelCancelEverywhere(t *testing.T) {
	e := NewEngine()
	fired := map[string]bool{}
	mk := func(name string, at Time) Event {
		return e.At(at, func(Time) { fired[name] = true })
	}
	keepNear := mk("keepNear", 10)
	dropNear := mk("dropNear", 10)
	keepFar := mk("keepFar", 5e9)
	dropFar := mk("dropFar", 5e9)
	keepOver := mk("keepOver", 9e15)
	dropOver := mk("dropOver", 9e15)
	e.Cancel(dropNear)
	e.Cancel(dropFar)
	e.Cancel(dropOver)
	e.Run()
	for _, ev := range []Event{keepNear, keepFar, keepOver} {
		if ev.Canceled() {
			t.Fatalf("kept event reports canceled")
		}
	}
	for _, name := range []string{"keepNear", "keepFar", "keepOver"} {
		if !fired[name] {
			t.Fatalf("%s did not fire", name)
		}
	}
	for _, name := range []string{"dropNear", "dropFar", "dropOver"} {
		if fired[name] {
			t.Fatalf("%s fired despite cancel", name)
		}
	}
	if !dropNear.Canceled() || !dropFar.Canceled() || !dropOver.Canceled() {
		t.Fatalf("canceled events do not report Canceled")
	}
}

// TestWheelScheduleBehindCursor pins the subtle case where RunUntil (or a
// peek) advanced the wheel cursor past an idle stretch and a later
// schedule lands before the cursor: it must still fire, and in order.
func TestWheelScheduleBehindCursor(t *testing.T) {
	e := NewEngine()
	var got []Time
	rec := func(now Time) { got = append(got, now) }
	e.At(1000, rec)
	e.RunUntil(500) // no event fires; clock (and cursor) move to 500
	e.At(600, rec)  // behind the pending 1000 event, after some cursor motion
	e.At(501, rec)
	e.Run()
	want := []Time{501, 600, 1000}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fire order %v, want %v", got, want)
	}
}

// TestWheelRandomOrder checks total ordering against a sort of the same
// times, across a spread that exercises every level and the overflow.
func TestWheelRandomOrder(t *testing.T) {
	e := NewEngine()
	rng := rand.New(rand.NewSource(7))
	var want []float64
	var got []Time
	for i := 0; i < 5000; i++ {
		at := Time(rng.Float64() * 1e15)
		want = append(want, float64(at))
		e.At(at, func(now Time) { got = append(got, now) })
	}
	sort.Float64s(want)
	e.Run()
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range got {
		if float64(got[i]) != want[i] {
			t.Fatalf("event %d fired at %v, want %v", i, float64(got[i]), want[i])
		}
	}
}

// Direct structural check: occupancy bits must clear when cancels empty a
// bucket, or advance would spin on phantom work.
func TestWheelOccupancyClearsOnCancel(t *testing.T) {
	var w wheel
	s1 := &slot{at: 100, seq: 0}
	s2 := &slot{at: 100.5, seq: 1}
	w.push(s1)
	w.push(s2) // same tick bucket
	w.remove(s1)
	w.remove(s2)
	if w.size != 0 {
		t.Fatalf("size %d after removing both, want 0", w.size)
	}
	for l, m := range w.occ {
		if m != 0 {
			t.Fatalf("level %d occupancy %b after bucket emptied", l, m)
		}
	}
	s3 := &slot{at: 50, seq: 2}
	w.push(s3)
	if got := w.pop(); got != s3 {
		t.Fatalf("pop after cancels returned %v, want s3", got)
	}
	if _, ok := w.peek(); ok {
		t.Fatalf("peek reports events on empty wheel")
	}
}

// Benchmarks. BenchmarkWheel* are bench-compare gate benchmarks;
// bench/BASELINE.txt records them. docs/PERFORMANCE.md keeps the dated
// wheel-vs-heap comparison that made the wheel the engine's timeline.

type benchRearm struct {
	e     *Engine
	state uint64
	horiz Time
}

func (b *benchRearm) HandleEvent(now Time, arg uint64) {
	// xorshift keeps deltas varied without rand allocations.
	b.state ^= b.state << 13
	b.state ^= b.state >> 7
	b.state ^= b.state << 17
	d := 1 + Time(b.state%uint64(b.horiz))
	b.e.AfterHandler(d, b, arg)
}

// benchSteadyState measures the canonical fire→reschedule loop at a given
// concurrent-timer population — the shape of every closed-loop cxlsim
// workload (Fig 8 inflight ops, tickers, retry timers).
func benchSteadyState(b *testing.B, pending int, horiz Time) {
	e := NewEngine()
	h := &benchRearm{e: e, state: 0x9e3779b97f4a7c15, horiz: horiz}
	for i := 0; i < pending; i++ {
		e.AfterHandler(Time(i+1), h, uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func BenchmarkWheelSteadyState64(b *testing.B)   { benchSteadyState(b, 64, 10*Microsecond) }
func BenchmarkWheelSteadyState4096(b *testing.B) { benchSteadyState(b, 4096, 10*Millisecond) }

// BenchmarkWheelCancelHeavy measures schedule+cancel churn against a deep
// pending population, where the heap pays O(log n) per operation and the
// wheel pays O(1).
func BenchmarkWheelCancelHeavy(b *testing.B) {
	e := NewEngine()
	nop := func(Time) {}
	for i := 0; i < 1<<15; i++ {
		e.At(Time(1e6+i), nop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := e.At(Time(5e5+i%1000)+Time(i%8)/8, nop)
		e.Cancel(ev)
	}
}

package obs

import (
	"strings"
	"testing"

	"cxlsim/internal/stats"
)

func latHist() func() *stats.Histogram {
	// One bucket per decade over 1..1e5: coarse enough that quantile
	// expectations are just decade upper bounds.
	return func() *stats.Histogram { return stats.NewHistogram(1, 5, 1) }
}

func TestNilWindowsIsSafe(t *testing.T) {
	var w *Windows
	w.Flush(10)
	w.Close(20)
	w.OnSeal(func(WindowSnapshot) {})
	if w.Length() != 0 {
		t.Fatal("nil Windows Length != 0")
	}
	if snap := w.Snapshot(); snap != nil {
		t.Fatalf("nil Windows Snapshot = %v, want nil", snap)
	}
}

func TestNewWindowsPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"nil registry", func() { NewWindows(nil, 10) }},
		{"zero length", func() { NewWindows(NewRegistry(), 0) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", tc.name)
				}
			}()
			tc.fn()
		}()
	}
}

func TestWindowsSealOnBoundary(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "ops")
	w := NewWindows(r, 10)

	c.Add(3)
	w.Flush(5) // mid-window: nothing seals
	if n := len(w.Snapshot()); n != 0 {
		t.Fatalf("sealed %d windows before the boundary", n)
	}
	w.Flush(10) // boundary: window 0 seals with the accumulated delta
	snap := w.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("sealed %d windows, want 1", len(snap))
	}
	ws := snap[0]
	if ws.Index != 0 || ws.StartNs != 0 || ws.EndNs != 10 || ws.Partial {
		t.Fatalf("window bounds = %+v", ws)
	}
	if len(ws.Counters) != 1 || ws.Counters[0].Delta != 3 {
		t.Fatalf("counters = %+v, want one delta-3 entry", ws.Counters)
	}
	// 3 ops over 10 virtual ns = 3e8/s.
	if got := ws.Counters[0].Rate; got != 3e8 {
		t.Fatalf("rate = %g, want 3e8", got)
	}
}

func TestWindowsSkippedIntervalsSealEmpty(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "ops")
	w := NewWindows(r, 10)
	c.Add(2)
	w.Flush(35) // windows 0..2 complete; delta lands in window 0
	snap := w.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("sealed %d windows, want 3", len(snap))
	}
	if len(snap[0].Counters) != 1 || snap[0].Counters[0].Delta != 2 {
		t.Fatalf("first window counters = %+v", snap[0].Counters)
	}
	for _, ws := range snap[1:] {
		if len(ws.Counters) != 0 {
			t.Fatalf("skipped window %d has counters %+v", ws.Index, ws.Counters)
		}
	}
}

func TestWindowsOutOfOrderFlushIgnored(t *testing.T) {
	r := NewRegistry()
	r.Counter("ops_total", "ops").Add(1)
	w := NewWindows(r, 10)
	w.Flush(20)
	before := len(w.Snapshot())
	w.Flush(10) // stale: must not seal or double-count
	w.Flush(20)
	if after := len(w.Snapshot()); after != before {
		t.Fatalf("stale flush sealed windows: %d -> %d", before, after)
	}
}

func TestWindowsCloseSealsPartial(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "ops")
	w := NewWindows(r, 10)
	c.Add(1)
	w.Flush(10)
	c.Add(4)
	w.Close(25) // window 1 full, window 2 partial at 25
	snap := w.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("sealed %d windows, want 3", len(snap))
	}
	if snap[1].Partial || len(snap[1].Counters) != 1 || snap[1].Counters[0].Delta != 4 {
		t.Fatalf("window 1 = %+v", snap[1])
	}
	last := snap[2]
	if !last.Partial || last.StartNs != 20 || last.EndNs != 25 {
		t.Fatalf("partial window = %+v", last)
	}
	// Closed: further activity is dropped.
	c.Add(9)
	w.Flush(100)
	w.Close(200)
	if n := len(w.Snapshot()); n != 3 {
		t.Fatalf("closed Windows sealed more: %d", n)
	}
}

func TestWindowsGaugeSampledEachSeal(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth", "queue depth")
	w := NewWindows(r, 10)
	g.Set(7)
	w.Flush(10)
	g.Set(2)
	w.Flush(20)
	snap := w.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("sealed %d windows, want 2", len(snap))
	}
	if snap[0].Gauges[0].Value != 7 || snap[1].Gauges[0].Value != 2 {
		t.Fatalf("gauge samples = %g, %g; want 7, 2", snap[0].Gauges[0].Value, snap[1].Gauges[0].Value)
	}
}

// TestWindowsSkipWallClockGauges: a wall-clock gauge stays in the
// Prometheus exposition but never enters a window, so windowed dumps do
// not depend on how fast the host ran.
func TestWindowsSkipWallClockGauges(t *testing.T) {
	r := NewRegistry()
	r.Gauge("depth", "queue depth").Set(7)
	r.WallClockGauge("recovery_ns", "wall-clock recovery time").Set(123456)
	w := NewWindows(r, 10)
	w.Flush(10)
	snap := w.Snapshot()
	if len(snap) != 1 || len(snap[0].Gauges) != 1 || snap[0].Gauges[0].Name != "depth" {
		t.Fatalf("window gauges = %+v, want only depth", snap[0].Gauges)
	}
	var prom strings.Builder
	if err := WriteProm(&prom, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "recovery_ns 123456") {
		t.Fatalf("Prometheus text lost the wall-clock gauge:\n%s", prom.String())
	}
}

func TestWindowsHistogramIntervalQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ns", "latency", latHist())
	w := NewWindows(r, 10)

	for i := 0; i < 99; i++ {
		h.Observe(50) // ≤100 bucket
	}
	h.Observe(5000) // ≤10000 bucket
	w.Flush(10)

	// Second window sees only its own observations, not the cumulative
	// distribution.
	h.Observe(200)
	w.Flush(20)

	snap := w.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("sealed %d windows, want 2", len(snap))
	}
	ref := latHist()()
	h0 := snap[0].Histograms[0]
	if h0.Count != 100 {
		t.Fatalf("window 0 count = %d, want 100", h0.Count)
	}
	if want := ref.BucketUpperBound(50); h0.P50 != want { // bucket bound containing the median
		t.Fatalf("window 0 p50 = %g, want %g", h0.P50, want)
	}
	if want := ref.BucketUpperBound(5000); h0.P999 != want {
		t.Fatalf("window 0 p999 = %g, want %g", h0.P999, want)
	}
	h1 := snap[1].Histograms[0]
	if want := ref.BucketUpperBound(200); h1.Count != 1 || h1.P50 != want {
		t.Fatalf("window 1 = %+v, want count 1 p50 %g", h1, want)
	}
}

func TestWindowsOnSealOrderAndJSON(t *testing.T) {
	r := NewRegistry()
	w := NewWindows(r, 10)
	var order []int64
	w.OnSeal(func(ws WindowSnapshot) { order = append(order, ws.Index) })
	w.Flush(30)
	w.Close(35)
	if len(order) != 4 {
		t.Fatalf("OnSeal fired %d times, want 4", len(order))
	}
	for i, idx := range order {
		if idx != int64(i) {
			t.Fatalf("OnSeal order = %v", order)
		}
	}
	var sb strings.Builder
	if err := w.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"partial": true`) {
		t.Fatalf("JSON missing partial marker:\n%s", sb.String())
	}
}

func TestWindowsLabeledChildrenSorted(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("reqs_total", "requests", "kind")
	cv.With("write").Add(1)
	cv.With("read").Add(2)
	w := NewWindows(r, 10)
	w.Flush(10)
	snap := w.Snapshot()
	cs := snap[0].Counters
	if len(cs) != 2 || cs[0].Labels[0] != "read" || cs[1].Labels[0] != "write" {
		t.Fatalf("children not label-sorted: %+v", cs)
	}
}

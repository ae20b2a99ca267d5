package report

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cxlsim/internal/obs"
	"cxlsim/internal/slo"
	"cxlsim/internal/stats"
)

// testRuns builds a healthy/degraded pair with enough shape to exercise
// every report section: latency histograms, availability counters, a
// gauge, and an SLO evaluation with a firing alert in the degraded run.
func testRuns(t *testing.T) []*Run {
	t.Helper()
	spec := slo.Spec{
		Name:     "test",
		WindowMs: 10,
		Objectives: []slo.Objective{
			{Name: "op-latency", Kind: slo.KindLatency, Metric: "kvstore_op_latency_ns", ThresholdNs: 1e6, Target: 0.99},
			{Name: "availability", Kind: slo.KindAvailability, Metric: "kvstore_ops_total", BadMetric: "kvstore_failed_ops_total", Target: 0.999},
		},
		Alerts: []slo.AlertRule{
			{Name: "latency-fast-burn", Objective: "op-latency", LongWindows: 3, ShortWindows: 1, BurnRate: 5},
		},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}

	build := func(label string, degraded bool) *Run {
		eval := slo.NewEvaluator(spec)
		var windows []obs.WindowSnapshot
		for i := int64(0); i < 8; i++ {
			bad := uint64(1)
			failed := 0.0
			if degraded && i >= 3 && i < 6 {
				bad = 400
				failed = 25
			}
			good := uint64(1000) - bad
			ws := obs.WindowSnapshot{
				Index: i, StartNs: float64(i) * 1e7, EndNs: float64(i+1) * 1e7,
				Counters: []obs.WindowCounter{
					{Name: "kvstore_ops_total", Delta: 1000, Rate: 1e11},
				},
				Gauges: []obs.WindowGauge{
					{Name: "tiering_degraded_nodes", Value: failed / 25},
				},
				Histograms: []obs.WindowHistogram{{
					Name: "kvstore_op_latency_ns", Count: 1000, Sum: 7e7,
					Buckets: []stats.Bucket{
						{UpperBound: 1e5, Count: good},
						{UpperBound: 1e7, Count: bad},
					},
					P50: 1e5, P95: 1e5, P99: 1e5 + float64(bad), P999: 1e7,
				}},
			}
			if failed > 0 {
				ws.Counters = append(ws.Counters,
					obs.WindowCounter{Name: "kvstore_failed_ops_total", Delta: failed, Rate: failed * 1e8})
			}
			eval.Observe(ws)
			windows = append(windows, ws)
		}
		return &Run{
			Label: label, Config: "1:1", Workload: "YCSB-A",
			WindowNs: 1e7, Windows: windows, SLO: eval.Evaluation(),
		}
	}
	degraded := build("degraded", true)
	degraded.Schedule = "examples/degrade-cxl.json"
	return []*Run{build("healthy", false), degraded}
}

func render(t *testing.T, runs []*Run) string {
	t.Helper()
	var b bytes.Buffer
	if err := WriteHTML(&b, runs); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestWriteHTMLDeterministic(t *testing.T) {
	runs := testRuns(t)
	first := render(t, runs)
	for i := 0; i < 3; i++ {
		if again := render(t, testRuns(t)); again != first {
			t.Fatalf("render %d differs from the first", i)
		}
	}
}

func TestWriteHTMLSections(t *testing.T) {
	out := render(t, testRuns(t))
	for _, want := range []string{
		"<!DOCTYPE html>",
		"alert timeline",
		"kvstore_op_latency_ns",
		"latency-fast-burn",
		"op-latency",
		"prefers-color-scheme: dark",
		"<table", // accessibility data table
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q", want)
		}
	}
	// The degraded run fires; the report must show a firing interval and
	// the healthy run must not produce one.
	if !strings.Contains(out, "class=\"bar\"") && !strings.Contains(out, "firing") {
		t.Fatalf("no alert activity rendered:\n%.2000s", out)
	}
	// No wall-clock leakage: a report is pure virtual time.
	for _, banned := range []string{"time.Now", "Date:"} {
		if strings.Contains(out, banned) {
			t.Fatalf("report contains wall-clock artifact %q", banned)
		}
	}
}

func TestRunJSONRoundtrip(t *testing.T) {
	runs := testRuns(t)
	path := filepath.Join(t.TempDir(), "run.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := runs[1].WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Label != "degraded" || len(loaded.Windows) != 8 || loaded.SLO == nil {
		t.Fatalf("roundtrip lost data: %+v", loaded)
	}
	// The rendered report must not care which path the run came in by.
	direct := render(t, []*Run{runs[1]})
	viaJSON := render(t, []*Run{loaded})
	if direct != viaJSON {
		t.Fatal("report differs between in-memory and JSON-loaded run")
	}
}

func TestValidate(t *testing.T) {
	if err := (&Run{Label: "x", WindowNs: 1}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (&Run{WindowNs: 1}).Validate(); err == nil {
		t.Fatal("missing label accepted")
	}
	if err := (&Run{Label: "x"}).Validate(); err == nil {
		t.Fatal("zero window accepted")
	}
}

func TestWriteHTMLEmptyRunsRejected(t *testing.T) {
	var b bytes.Buffer
	if err := WriteHTML(&b, nil); err == nil {
		t.Fatal("empty run list accepted")
	}
}

// TestWriteFileSurfacesErrors pins the contract every command's dump
// path (-dump, -report, -trace, -metrics) relies on: WriteFile must
// fail on an unwritable path, propagate fn's own error, and surface
// flush/close failures such as ENOSPC instead of leaving a silently
// truncated file behind.
func TestWriteFileSurfacesErrors(t *testing.T) {
	ok := filepath.Join(t.TempDir(), "out.txt")
	if err := WriteFile(ok, func(w io.Writer) error {
		_, err := io.WriteString(w, "payload")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(ok); err != nil || string(b) != "payload" {
		t.Fatalf("wrote %q, %v", b, err)
	}

	if err := WriteFile(filepath.Join(t.TempDir(), "no", "dir", "x"), func(io.Writer) error {
		return nil
	}); err == nil {
		t.Fatal("missing directory should error")
	}

	boom := errors.New("boom")
	err := WriteFile(filepath.Join(t.TempDir(), "y"), func(io.Writer) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("fn error not propagated: %v", err)
	}
	if err == nil || !strings.Contains(err.Error(), "writing ") {
		t.Fatalf("error %v does not name the path", err)
	}

	// /dev/full accepts opens and small buffered writes but fails the
	// flush with ENOSPC — exactly the failure mode WriteFile exists to
	// catch. Skip quietly where the device is absent.
	if _, err := os.Stat("/dev/full"); err == nil {
		err := WriteFile("/dev/full", func(w io.Writer) error {
			for i := 0; i < 10000; i++ {
				if _, err := fmt.Fprintln(w, "fill the buffer so flush hits the device"); err != nil {
					return err
				}
			}
			return nil
		})
		if err == nil {
			t.Fatal("WriteFile to /dev/full should surface ENOSPC")
		}
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestQuickWorkloads runs every workload briefly, twice with one seed,
// and checks that each metric is printed with its unit, that the
// correctness checks pass, and that the deterministic metrics repeat
// exactly.
func TestQuickWorkloads(t *testing.T) {
	work := filepath.Join("..", ".bench_build", "selftest")
	if err := os.MkdirAll(work, 0o755); err != nil {
		t.Fatal(err)
	}
	cfg := runConfig{seed: 7, quick: true, work: work}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var runs []outcome
			for i := 0; i < 2; i++ {
				var report bytes.Buffer
				out, err := runWorkload(w, cfg, 0, true, &report)
				if err != nil {
					t.Fatal(err)
				}
				if !out.correct() || out.values["error_frac"] != 0 {
					t.Fatalf("run %d: %d of %d operations failed:\n%s", i, out.failed, out.attempted, report.String())
				}
				checkPrinted(t, report.String(), w.name)
				for _, set := range [][]metric{endToEnd, perLayer} {
					checkJSONLine(t, out, set)
				}
				runs = append(runs, out)
			}
			for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
				if !m.Det {
					continue
				}
				if a, b := runs[0].values[m.Name], runs[1].values[m.Name]; a != b {
					t.Errorf("deterministic metric %s differs across same-seed runs: %v vs %v", m.Name, a, b)
				}
			}
			if w.name == "cluster-interleave" || w.name == "resp" {
				if v := runs[0].values["tiering.ticks"]; v != 0 {
					t.Errorf("tiering.ticks = %v on %s, which bypasses tiering", v, w.name)
				}
			}
			if w.name != "resp" {
				if v := runs[0].values["spill.fsyncs"]; v != 0 {
					t.Errorf("spill.fsyncs = %v on %s, which has no spill tier", v, w.name)
				}
			} else if runs[0].values["spill.fsyncs"] == 0 {
				t.Errorf("spill.fsyncs = 0 on resp")
			}
			for _, m := range endToEnd {
				if runs[0].values[m.Name] <= 0 {
					t.Errorf("end-to-end metric %s = %v; it must never be 0", m.Name, runs[0].values[m.Name])
				}
			}
		})
	}
}

// checkPrinted requires a "metric <name> <value> <unit>" report line
// for every metric.
func checkPrinted(t *testing.T, report, workload string) {
	t.Helper()
	printed := map[string]string{}
	for _, line := range strings.Split(report, "\n") {
		f := strings.Fields(line)
		if len(f) >= 4 && f[0] == "metric" {
			printed[f[1]] = f[3]
		}
	}
	for _, set := range [][]metric{endToEnd, reportOnly, perLayer} {
		for _, m := range set {
			unit, ok := printed[m.Name]
			if !ok {
				t.Errorf("%s: metric %s not printed", workload, m.Name)
			} else if unit != m.Unit {
				t.Errorf("%s: metric %s printed with unit %q, want %q", workload, m.Name, unit, m.Unit)
			}
		}
	}
}

// checkJSONLine requires the result line to carry exactly the metrics of
// set, each with its unit.
func checkJSONLine(t *testing.T, out outcome, set []metric) {
	t.Helper()
	line, err := out.jsonLine(set)
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(line), &res); err != nil {
		t.Fatalf("result line %q: %v", line, err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("result line %q: want correct with attempted ≥ 1 and failed 0", line)
	}
	if len(res.Metrics) != len(set) {
		t.Errorf("result line has %d metrics, want %d", len(res.Metrics), len(set))
	}
	for _, m := range set {
		if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("result line: metric %s = %+v, want unit %q", m.Name, got, m.Unit)
		}
	}
}

// TestSpecMatchesBenchmarkJSON holds the committed BENCHMARK.json to the
// metric and workload tables.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if want := specJSON(); !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is stale; regenerate it with: bash perfbench/run.sh --spec > BENCHMARK.json\nwant:\n%s", want)
	}
}

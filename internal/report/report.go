// Package report turns windowed metric snapshots and SLO evaluations
// from one or more runs into a self-contained HTML scenario report:
// inline SVG time series of per-window tail latencies and rates, an SLO
// attainment table per run and objective, and a burn-rate alert
// timeline. Output is byte-identical for identical inputs — no
// wall-clock timestamps, no map-order dependence, fixed float
// formatting — so reports diff cleanly and gate in CI.
package report

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"cxlsim/internal/obs"
	"cxlsim/internal/slo"
)

// Run is one simulation run's windowed observability dump: the unit
// cxlycsb/cxlbench write and cxlreport consumes.
type Run struct {
	Label    string  `json:"label"`              // e.g. "healthy", "degraded"
	Config   string  `json:"config,omitempty"`   // memory configuration, e.g. "1:1"
	Workload string  `json:"workload,omitempty"` // e.g. "YCSB-A"
	Schedule string  `json:"schedule,omitempty"` // fault schedule file, if any
	WindowNs float64 `json:"window_ns"`

	Windows []obs.WindowSnapshot `json:"windows"`
	SLO     *slo.Evaluation      `json:"slo,omitempty"`
}

// Validate checks the dump's basic shape.
func (r *Run) Validate() error {
	if r.Label == "" {
		return fmt.Errorf("report: run has no label")
	}
	if r.WindowNs <= 0 {
		return fmt.Errorf("report: run %s: window_ns must be positive", r.Label)
	}
	return nil
}

// Load reads one run dump from a JSON file.
func Load(path string) (*Run, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Run
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("report: parsing %s: %w", path, err)
	}
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return &r, nil
}

// WriteJSON serializes a run dump (the inverse of Load).
func (r *Run) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(r)
}

// WriteFile creates path, hands fn a buffered writer, and surfaces every
// failure as one error naming the path: fn's error, the buffer flush,
// and the close, which is where deferred write errors (ENOSPC, quota)
// appear on many filesystems. No dump may silently truncate.
func WriteFile(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	werr := fn(w)
	if werr == nil {
		werr = w.Flush()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("writing %s: %w", path, werr)
	}
	return nil
}

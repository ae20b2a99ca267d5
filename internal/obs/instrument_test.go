package obs_test

import (
	"math"
	"testing"

	"cxlsim/internal/memsim"
	"cxlsim/internal/obs"
	"cxlsim/internal/topology"
)

// TestInstrumentMemsimGauges checks the per-resource gauges
// InstrumentMemsim publishes after a solve: a DRAM node offered half its
// read peak reads back as ~50% utilization and ~33.5 GB/s.
func TestInstrumentMemsimGauges(t *testing.T) {
	m := topology.TestbedSNC()
	reg := obs.NewRegistry()
	obs.InstrumentMemsim(reg)
	defer obs.InstrumentMemsim(nil)

	node := m.DRAMNodes(0)[0]
	memsim.SolveOpen([]memsim.OpenFlow{
		{Placement: memsim.SinglePath(m.PathFrom(0, node)), Mix: memsim.ReadOnly, Offered: 33.5},
	})
	snap := reg.Snapshot()
	gauge := func(family string) float64 {
		t.Helper()
		f, ok := snap.Find(family)
		if !ok {
			t.Fatalf("no %s family", family)
		}
		for _, mt := range f.Metrics {
			if mt.LabelValues[0] == node.Name {
				return mt.Value
			}
		}
		t.Fatalf("%s has no series for %s", family, node.Name)
		return 0
	}
	if u := gauge(obs.MetricUtilization); math.Abs(u-0.5) > 0.01 {
		t.Fatalf("utilization gauge = %v, want ≈0.5", u)
	}
	if bw := gauge(obs.MetricBandwidth); bw < 30 || bw > 37 {
		t.Fatalf("bandwidth gauge = %v GB/s, want ≈33.5", bw)
	}
}

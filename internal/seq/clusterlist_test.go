package seq

import (
	"testing"

	"gonamd/internal/forcefield"
	"gonamd/internal/molgen"
)

// TestClusterScanFrequency is the regression test for the validity-check
// cost: with the drift bound in place, most steps must answer the Verlet
// list validity question without the O(N) displacement scan, and rebuilds
// must stay far rarer than steps.
func TestClusterScanFrequency(t *testing.T) {
	spec := molgen.WaterBox(16, 7)
	sys, st, err := molgen.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	ff := forcefield.Standard(7.0)
	eng, err := New(sys, ff, st)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.EnableClusterLists(4, 4, 1.5); err != nil {
		t.Fatal(err)
	}
	eng.Minimize(20, 0.2) // calm initial overlaps so drift is thermal

	g := &eng.clusters.guard
	scans0, skips0, rebuilds0 := g.Scans, g.Skips, g.Builds
	const steps = 40
	for s := 0; s < steps; s++ {
		eng.Step(0.5)
	}
	scans, skips, rebuilds := g.Scans-scans0, g.Skips-skips0, g.Builds-rebuilds0

	// Every step performs exactly one validity check, answered either by
	// the bound (skip) or by a scan.
	if scans+skips != steps {
		t.Errorf("scans (%d) + skips (%d) = %d, want %d", scans, skips, scans+skips, steps)
	}
	// Steps immediately after a rebuild must skip the scan: the bound was
	// just reset to zero and one step's drift is far below skin/2.
	if skips == 0 {
		t.Error("no validity checks were answered by the drift bound")
	}
	// Rebuilds stay rare relative to steps, and each rebuild (after the
	// build the minimizer left behind) must have been triggered by a scan.
	if rebuilds > steps/4 {
		t.Errorf("rebuilds = %d in %d steps — list thrashing", rebuilds, steps)
	}
	if rebuilds > scans {
		t.Errorf("rebuilds (%d) > scans (%d): a rebuild happened without a failed scan", rebuilds, scans)
	}
	t.Logf("steps=%d scans=%d skips=%d rebuilds=%d", steps, scans, skips, rebuilds)
}

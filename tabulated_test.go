package gonamd_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"gonamd"
)

// This file is the differential battery for the tabulated cluster
// kernels (WithTabulatedKernels): per-atom accuracy against the
// analytic kernels at the default table spacing, NVE conservation,
// within-mode bitwise reproducibility across worker counts, warm-rebuild
// bitwise identity, and the engine-spec / scheduler wiring. The
// determinism contract matches the rest of the cluster pipeline
// (DESIGN.md, "Tabulated kernels"): bitwise within a fixed
// configuration, documented accuracy envelope across modes.

// tabOpts is the canonical tabulated-engine configuration used across
// the battery: default table resolution on 8×8 cluster lists.
func tabOpts(extra ...gonamd.Option) []gonamd.Option {
	return append([]gonamd.Option{
		gonamd.WithClusterLists(8, 8), gonamd.WithClusterSkin(0.5),
		gonamd.WithTabulatedKernels(0),
	}, extra...)
}

// TestClusterTabForceAccuracyApoA1: on the ApoA-I benchmark box, the
// tabulated kernel's per-atom forces must track the analytic float64
// cluster kernel within 1e-5 of the configuration's force scale at the
// default table spacing — the production half of the accuracy envelope
// (the spacing → error sweep lives in internal/forcefield's
// TestInteractionTableAccuracySweep).
func TestClusterTabForceAccuracyApoA1(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the ApoA-I box")
	}
	sys, st, err := gonamd.BuildSystem(gonamd.ApoA1Spec())
	if err != nil {
		t.Fatal(err)
	}
	ff := gonamd.StandardForceField(9.0)
	// Relax the as-built contacts first: the synthetic structure starts
	// on near-singular r⁻¹² clashes deep inside the repulsive wall,
	// where the table's h²/x² interpolation error peaks far above the
	// envelope this test pins for thermally accessible separations.
	m, err := gonamd.NewSequential(sys, ff, st, gonamd.WithClusterLists(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	m.Minimize(60, 0.2)

	eval := func(tab bool) ([]gonamd.V3, gonamd.Energies) {
		opts := []gonamd.Option{gonamd.WithClusterLists(4, 4)}
		if tab {
			opts = append(opts, gonamd.WithTabulatedKernels(0))
		}
		e, err := gonamd.NewSequential(sys, ff, st.Clone(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		en := e.ComputeForces()
		return e.Forces(), en
	}
	anaF, enA := eval(false)
	tabF, enT := eval(true)

	// Relative to the force scale of the configuration: per-atom
	// absolute errors on near-cancelling small forces are meaningless.
	scale := 0.0
	for i := range anaF {
		if n := anaF[i].Norm(); n > scale {
			scale = n
		}
	}
	worst := 0.0
	for i := range anaF {
		if d := tabF[i].Sub(anaF[i]).Norm() / scale; d > worst {
			worst = d
		}
	}
	if worst > 1e-5 {
		t.Errorf("worst per-atom force error %.3g of the force scale exceeds the 1e-5 bound", worst)
	}
	for _, e := range []struct {
		name     string
		tab, ana float64
	}{{"vdw", enT.VdW, enA.VdW}, {"elec", enT.Elec, enA.Elec}} {
		if d := math.Abs(e.tab-e.ana) / (1 + math.Abs(e.ana)); d > 1e-5 {
			t.Errorf("%s energy relative error %.3g exceeds 1e-5 (%.6f vs %.6f)", e.name, d, e.tab, e.ana)
		}
	}
}

// TestClusterTabNVEDrift: 500 steps of NVE dynamics under the tabulated
// kernels must conserve total energy within the same pinned bound the
// PME drift test uses. This is the property the Hermite construction
// buys: the interpolated force is the exact derivative of the
// interpolated energy, so the tabulated field is conservative by
// construction and interpolation error cannot pump energy.
func TestClusterTabNVEDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("long NVE run")
	}
	sys, st, err := gonamd.BuildSystem(gonamd.WaterBoxSpec(12, 11))
	if err != nil {
		t.Fatal(err)
	}
	ff := gonamd.StandardForceField(5.5)
	m, err := gonamd.NewSequential(sys, ff, st)
	if err != nil {
		t.Fatal(err)
	}
	m.Minimize(200, 0.2)

	e, err := gonamd.NewSequential(sys, ff, st,
		gonamd.WithClusterLists(4, 4), gonamd.WithTabulatedKernels(0))
	if err != nil {
		t.Fatal(err)
	}
	const steps, dt = 500, 0.5
	e0 := e.Energies().Total()
	kin := e.Energies().Kinetic
	worst := 0.0
	for s := 0; s < steps; s++ {
		e.Step(dt)
		if d := math.Abs(e.Energies().Total() - e0); d > worst {
			worst = d
		}
	}
	if e.ClusterRebuilds() < 2 {
		t.Fatalf("run exercised %d list rebuilds, want ≥ 2", e.ClusterRebuilds())
	}
	if bound := 0.02 * kin; worst > bound {
		t.Fatalf("NVE drift %.4f kcal/mol exceeds bound %.4f (kinetic %.2f)", worst, bound, kin)
	}
}

// TestClusterTabReproducible: tabulated trajectories must be bitwise
// reproducible run-to-run for a fixed configuration — sequential and
// parallel at 1/2/4/8 workers — and every configuration must agree with
// the sequential tabulated trajectory within reduction tolerance (the
// reduction order differs across configurations, so cross-config
// identity is a closeness statement, exactly as for the analytic
// cluster kernels).
// The md-pme shape — 4×4 lists with PME and Ewald tables, on the table
// lane kernel on AVX2 hosts — must in addition match the same pipeline
// run on the pure-Go table loop bit for bit at every worker count.
func TestClusterTabReproducible(t *testing.T) {
	sys, st, ff := diffSystem(t)
	const steps, dt = 10, 0.5

	run := func(workers int) *gonamd.State {
		s := st.Clone()
		opts := tabOpts()
		var eng gonamd.Engine
		var err error
		if workers == 0 {
			eng, err = gonamd.NewSequential(sys, ff, s, opts...)
		} else {
			eng, err = gonamd.NewParallel(sys, ff, s, workers, opts...)
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < steps; i++ {
			eng.Step(dt)
		}
		return s
	}

	for _, workers := range []int{0, 1, 2, 4, 8} {
		a, b := run(workers), run(workers)
		if !reflect.DeepEqual(a.Pos, b.Pos) || !reflect.DeepEqual(a.Vel, b.Vel) {
			t.Errorf("workers=%d: tabulated trajectory not bitwise reproducible", workers)
		}
	}
	const beta = 0.45
	run4x4 := func(workers int, ref bool) (*gonamd.State, gonamd.Energies) {
		s := st.Clone()
		eng, err := gonamd.NewParallel(sys, ff, s, workers,
			gonamd.WithClusterLists(4, 4), gonamd.WithPME(1.0, beta, 4), gonamd.WithTabulatedKernels(0))
		if err != nil {
			t.Fatal(err)
		}
		eng.UseReferenceClusterKernel(ref)
		for i := 0; i < steps; i++ {
			eng.Step(dt)
		}
		return s, eng.Energies()
	}
	for _, workers := range []int{1, 2, 4, 8} {
		ran := laneKernelCheck(t, 4, beta, true, fmt.Sprintf("4x4 workers=%d", workers))
		a, enA := run4x4(workers, false)
		b, _ := run4x4(workers, false)
		ran()
		if !reflect.DeepEqual(a.Pos, b.Pos) || !reflect.DeepEqual(a.Vel, b.Vel) {
			t.Errorf("4x4 workers=%d: tabulated PME trajectory not bitwise reproducible", workers)
		}
		ref, enRef := run4x4(workers, true)
		if !reflect.DeepEqual(a.Pos, ref.Pos) || !reflect.DeepEqual(a.Vel, ref.Vel) || enA != enRef {
			t.Errorf("4x4 workers=%d: tabulated PME trajectory or energies differ from the pure-Go table loop's", workers)
		}
	}
	seqTab := run(0)
	compare := func(name string, pos []gonamd.V3, tol float64) {
		t.Helper()
		worst := 0.0
		for i := range pos {
			if d := pos[i].Sub(seqTab.Pos[i]).Norm(); d > worst {
				worst = d
			}
		}
		if worst > tol {
			t.Errorf("%s drifted %v Å from the sequential tabulated trajectory (tol %v)", name, worst, tol)
		}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		compare("parallel tab", run(workers).Pos, 1e-6)
	}

	// Cross-mode half of the envelope: the tabulated trajectory tracks
	// the analytic cluster trajectory closely over a short run (per-atom
	// force error ~1e-6 of scale compounds slowly), but not bitwise.
	anaSt := st.Clone()
	ana, err := gonamd.NewSequential(sys, ff, anaSt,
		gonamd.WithClusterLists(8, 8), gonamd.WithClusterSkin(0.5))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < steps; i++ {
		ana.Step(dt)
	}
	worst := 0.0
	for i := range seqTab.Pos {
		if d := seqTab.Pos[i].Sub(anaSt.Pos[i]).Norm(); d > worst {
			worst = d
		}
	}
	if worst > 1e-3 {
		t.Errorf("tabulated trajectory drifted %v Å from analytic in %d steps", worst, steps)
	}
}

// TestClusterTabRebuildVsReplay: the warm-rebuild bitwise guarantee of
// TestClusterRebuildVsReplay must survive table mode — the interaction
// table is built once at construction and shared read-only, so a warm
// engine's rebuild must continue bitwise identically to a fresh engine
// built at the same positions.
func TestClusterTabRebuildVsReplay(t *testing.T) {
	sys, st, ff := diffSystem(t)
	const dt = 0.5

	type clusterEngine interface {
		gonamd.Engine
		ClusterRebuilds() int
	}

	run := func(name string, mk func(s *gonamd.State) clusterEngine) {
		defer laneKernelCheck(t, 4, 0, true, name)()
		aSt := st.Clone()
		warm := mk(aSt)
		warm.ComputeForces()
		if warm.ClusterRebuilds() != 1 {
			t.Fatalf("%s: expected first evaluation to build, got %d builds", name, warm.ClusterRebuilds())
		}
		for k := 0; k < 3; k++ {
			for i := range aSt.Pos {
				aSt.Pos[i] = aSt.Pos[i].Add(gonamd.V3{X: 1e-3, Y: -1e-3, Z: 1e-3})
			}
			warm.Invalidate()
			warm.ComputeForces()
		}
		if warm.ClusterRebuilds() != 1 {
			t.Fatalf("%s: jiggles were meant to replay, got %d builds", name, warm.ClusterRebuilds())
		}
		aSt.Pos[0] = aSt.Pos[0].Add(gonamd.V3{X: 2, Y: 0, Z: 0})
		warm.Invalidate()
		warm.ComputeForces()
		if warm.ClusterRebuilds() != 2 {
			t.Fatalf("%s: kick was meant to rebuild, got %d builds", name, warm.ClusterRebuilds())
		}
		warmF := make([]gonamd.V3, len(warm.Forces()))
		copy(warmF, warm.Forces())

		bSt := aSt.Clone()
		fresh := mk(bSt)
		fresh.ComputeForces()
		if !reflect.DeepEqual(warmF, fresh.Forces()) {
			t.Errorf("%s: warm rebuild not bitwise identical to fresh build", name)
		}
		for i := 0; i < 4; i++ {
			warm.Step(dt)
			fresh.Step(dt)
		}
		if !reflect.DeepEqual(aSt.Pos, bSt.Pos) || !reflect.DeepEqual(aSt.Vel, bSt.Vel) {
			t.Errorf("%s: trajectories diverged bitwise after the shared rebuild", name)
		}
	}

	run("seq", func(s *gonamd.State) clusterEngine {
		e, err := gonamd.NewSequential(sys, ff, s,
			gonamd.WithClusterLists(4, 4), gonamd.WithTabulatedKernels(0))
		if err != nil {
			t.Fatal(err)
		}
		return e
	})

	// Parallel at one worker: the task→worker assignment is trivially
	// identical between the warm and fresh engines (see
	// TestClusterRebuildVsReplay for why higher counts are excluded).
	run("par", func(s *gonamd.State) clusterEngine {
		e, err := gonamd.NewParallel(sys, ff, s, 1,
			gonamd.WithClusterLists(4, 4), gonamd.WithTabulatedKernels(0),
			gonamd.WithRebalanceEvery(0))
		if err != nil {
			t.Fatal(err)
		}
		return e
	})
}

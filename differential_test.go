package gonamd_test

import (
	"math"
	"reflect"
	"testing"

	"gonamd"
	"gonamd/internal/forcefield"
)

// diffSystem builds a moderately sized water box once for the
// differential tests.
func diffSystem(t *testing.T) (*gonamd.System, *gonamd.State, *gonamd.ForceField) {
	t.Helper()
	sys, st, err := gonamd.BuildSystem(gonamd.WaterBoxSpec(16, 42))
	if err != nil {
		t.Fatal(err)
	}
	return sys, st, gonamd.StandardForceField(7.0)
}

// laneKernelCheck makes the bitwise cluster assertions non-vacuous on
// AVX2 hosts: the returned func fails t unless a lane kernel served at
// least one NonbondedCluster or NonbondedClusterTab call since
// laneKernelCheck was called, whenever an n-wide list with the given
// Ewald parameter (on the table kernel when tabulated is set) takes that
// path.
func laneKernelCheck(t *testing.T, n int, ewaldBeta float64, tabulated bool, what string) func() {
	before := forcefield.LaneKernelCalls()
	return func() {
		t.Helper()
		if gonamd.ClusterKernelPath(n, ewaldBeta, tabulated) == "avx2" && forcefield.LaneKernelCalls() == before {
			t.Errorf("%s: AVX2 host, but the lane kernel never ran", what)
		}
	}
}

// TestDifferentialForcesAcrossEngines: the cell walks of the sequential
// engine and of the parallel engine at 1/2/4/8 workers must agree on
// forces and energies for the same configuration within floating-point
// reduction tolerance (TestDifferentialClusterForces covers the cluster
// lists).
func TestDifferentialForcesAcrossEngines(t *testing.T) {
	sys, st, ff := diffSystem(t)

	ref, err := gonamd.NewSequential(sys, ff, st.Clone())
	if err != nil {
		t.Fatal(err)
	}
	refEn := ref.ComputeForces()
	refF := ref.Forces()

	check := func(name string, en gonamd.Energies, forces []gonamd.V3) {
		t.Helper()
		if math.Abs(en.Potential()-refEn.Potential()) > 1e-7*(1+math.Abs(refEn.Potential())) {
			t.Errorf("%s: potential %v, sequential direct %v", name, en.Potential(), refEn.Potential())
		}
		for i, f := range forces {
			d := f.Sub(refF[i]).Norm()
			if d > 1e-7*(1+refF[i].Norm()) {
				t.Fatalf("%s: force on atom %d off by %v (%v vs %v)", name, i, d, f, refF[i])
			}
		}
	}

	for _, workers := range []int{1, 2, 4, 8} {
		par, err := gonamd.NewParallel(sys, ff, st.Clone(), workers)
		if err != nil {
			t.Fatal(err)
		}
		check("parallel", par.ComputeForces(), par.Forces())
	}
}

// TestDifferentialTrajectories: short dynamics must stay consistent
// between the sequential engine (cell walk and cluster lists) and the
// parallel engine (both paths) at several worker counts.
func TestDifferentialTrajectories(t *testing.T) {
	sys, st, ff := diffSystem(t)
	const steps, dt = 10, 0.5

	// Engines advance the State they are built on in place, so keep a
	// handle on each clone.
	refSt := st.Clone()
	ref, err := gonamd.NewSequential(sys, ff, refSt)
	if err != nil {
		t.Fatal(err)
	}
	ref.Run(steps, dt)
	refPos := refSt.Pos

	compare := func(name string, pos []gonamd.V3, tol float64) {
		t.Helper()
		worst := 0.0
		for i := range pos {
			if d := pos[i].Sub(refPos[i]).Norm(); d > worst {
				worst = d
			}
		}
		if worst > tol {
			t.Errorf("%s drifted %v Å from the sequential trajectory (tol %v)", name, worst, tol)
		}
	}

	listedSt := st.Clone()
	listed, err := gonamd.NewSequential(sys, ff, listedSt, gonamd.WithClusterLists(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	listed.Run(steps, dt)
	compare("seq+clusters", listedSt.Pos, 1e-6)

	for _, workers := range []int{1, 2, 4, 8} {
		parSt := st.Clone()
		par, err := gonamd.NewParallel(sys, ff, parSt, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < steps; i++ {
			par.Step(dt)
		}
		compare("parallel", parSt.Pos, 1e-6)

		clSt := st.Clone()
		cl, err := gonamd.NewParallel(sys, ff, clSt, workers, gonamd.WithClusterLists(4, 4))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < steps; i++ {
			cl.Step(dt)
		}
		compare("parallel+clusters", clSt.Pos, 1e-6)
	}
}

// TestParallelBitwiseDeterminism: the parallel engine must be exactly
// reproducible — two runs with the same worker count produce bitwise
// identical positions and velocities, for every worker count, on both
// the cell walk and the cluster lists.
func TestParallelBitwiseDeterminism(t *testing.T) {
	sys, st, ff := diffSystem(t)
	const steps, dt = 10, 0.5
	for _, workers := range []int{1, 2, 4, 8} {
		run := func(clusters bool) *gonamd.State {
			parSt := st.Clone()
			var opts []gonamd.Option
			if clusters {
				opts = append(opts, gonamd.WithClusterLists(4, 4))
			}
			par, err := gonamd.NewParallel(sys, ff, parSt, workers, opts...)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < steps; i++ {
				par.Step(dt)
			}
			return parSt
		}
		for _, clusters := range []bool{false, true} {
			a, b := run(clusters), run(clusters)
			if !reflect.DeepEqual(a.Pos, b.Pos) {
				t.Errorf("%d workers (clusters=%v): positions not bitwise reproducible", workers, clusters)
			}
			if !reflect.DeepEqual(a.Vel, b.Vel) {
				t.Errorf("%d workers (clusters=%v): velocities not bitwise reproducible", workers, clusters)
			}
		}
	}
}

// TestDifferentialClusterForces: cluster mode must agree with the
// sequential direct engine within reduction tolerance, and — the bitwise
// claim — the optimized M×N kernel must produce forces bitwise identical
// to the scalar-kernel replay (forcefield.NonbondedClusterRef, which
// evaluates the very same cluster list pair-by-pair through
// ForceField.Nonbonded) through the full engine pipeline: sequential and
// parallel at 1/2/4/8 workers.
func TestDifferentialClusterForces(t *testing.T) {
	sys, st, ff := diffSystem(t)

	ref, err := gonamd.NewSequential(sys, ff, st.Clone())
	if err != nil {
		t.Fatal(err)
	}
	refEn := ref.ComputeForces()
	refF := ref.Forces()

	check := func(name string, en gonamd.Energies, forces []gonamd.V3) {
		t.Helper()
		if math.Abs(en.Potential()-refEn.Potential()) > 1e-7*(1+math.Abs(refEn.Potential())) {
			t.Errorf("%s: potential %v, sequential direct %v", name, en.Potential(), refEn.Potential())
		}
		for i, f := range forces {
			if d := f.Sub(refF[i]).Norm(); d > 1e-7*(1+refF[i].Norm()) {
				t.Fatalf("%s: force on atom %d off by %v (%v vs %v)", name, i, d, f, refF[i])
			}
		}
	}
	snapshot := func(forces []gonamd.V3) []gonamd.V3 {
		out := make([]gonamd.V3, len(forces))
		copy(out, forces)
		return out
	}

	for _, mn := range [][2]int{{4, 4}, {4, 8}} {
		seqCl, err := gonamd.NewSequential(sys, ff, st.Clone(), gonamd.WithClusterLists(mn[0], mn[1]))
		if err != nil {
			t.Fatal(err)
		}
		ran := laneKernelCheck(t, mn[1], 0, false, "seq")
		check("seq+clusters", seqCl.ComputeForces(), seqCl.Forces())
		ran()
		opt := snapshot(seqCl.Forces())
		seqCl.UseReferenceClusterKernel(true)
		seqCl.ComputeForces()
		if !reflect.DeepEqual(opt, seqCl.Forces()) {
			t.Fatalf("seq %dx%d: optimized kernel not bitwise identical to scalar replay", mn[0], mn[1])
		}

		for _, workers := range []int{1, 2, 4, 8} {
			parCl, err := gonamd.NewParallel(sys, ff, st.Clone(), workers, gonamd.WithClusterLists(mn[0], mn[1]))
			if err != nil {
				t.Fatal(err)
			}
			ran := laneKernelCheck(t, mn[1], 0, false, "par")
			check("parallel+clusters", parCl.ComputeForces(), parCl.Forces())
			ran()
			opt := snapshot(parCl.Forces())
			parCl.UseReferenceClusterKernel(true)
			parCl.ComputeForces()
			if !reflect.DeepEqual(opt, parCl.Forces()) {
				t.Fatalf("par %dx%d workers=%d: optimized kernel not bitwise identical to scalar replay",
					mn[0], mn[1], workers)
			}
		}
	}
}

// TestClusterRebuildVsReplay: a warm engine (cached cluster list, reused
// builder scratch, replayed steps behind it) that is forced to rebuild
// must continue bitwise identically to a fresh engine built at the same
// positions — proving the cluster list is a pure function of the
// positions and that no hidden state leaks from cached-replay steps into
// rebuilds. (Lists built at *different* positions legitimately differ in
// accumulation order, so that is the strongest bitwise statement there
// is; see DESIGN.md, "Cluster kernels & precision contract".)
func TestClusterRebuildVsReplay(t *testing.T) {
	sys, st, ff := diffSystem(t)
	const dt = 0.5

	type clusterEngine interface {
		gonamd.Engine
		ClusterRebuilds() int
	}

	run := func(name string, mk func(s *gonamd.State) clusterEngine) {
		defer laneKernelCheck(t, 4, 0, false, name)()
		aSt := st.Clone()
		warm := mk(aSt)
		warm.ComputeForces() // first build
		if warm.ClusterRebuilds() != 1 {
			t.Fatalf("%s: expected first evaluation to build, got %d builds", name, warm.ClusterRebuilds())
		}
		// Jiggle within the drift bound: these evaluations must replay
		// the cached list, leaving warm scratch and guard history behind.
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
		// Kick one atom past skin/2: the next evaluation must rebuild.
		aSt.Pos[0] = aSt.Pos[0].Add(gonamd.V3{X: 2, Y: 0, Z: 0})
		warm.Invalidate()
		warm.ComputeForces()
		if warm.ClusterRebuilds() != 2 {
			t.Fatalf("%s: kick was meant to rebuild, got %d builds", name, warm.ClusterRebuilds())
		}
		warmF := make([]gonamd.V3, len(warm.Forces()))
		copy(warmF, warm.Forces())

		// A fresh engine built at the identical positions must produce the
		// warm engine's rebuild bitwise, and continue bitwise under
		// dynamics (same list, same rebuild schedule).
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
		e, err := gonamd.NewSequential(sys, ff, s, gonamd.WithClusterLists(4, 4))
		if err != nil {
			t.Fatal(err)
		}
		return e
	})

	// Parallel at one worker: the task→worker assignment is trivially
	// identical between the warm and fresh engines, so the comparison
	// stays bitwise. (At higher worker counts the static assignment is
	// derived from the binning at construction time, which differs
	// between the two engines and permutes the reduction order.)
	run("par", func(s *gonamd.State) clusterEngine {
		e, err := gonamd.NewParallel(sys, ff, s, 1, gonamd.WithClusterLists(4, 4), gonamd.WithRebalanceEvery(0))
		if err != nil {
			t.Fatal(err)
		}
		return e
	})
}

package par

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"gonamd/internal/forcefield"
	"gonamd/internal/molgen"
	"gonamd/internal/trace"
)

// TestStepZeroAllocs guards the steady-state cell-walk hot path: once
// the worker pool is up, a dynamics step must not allocate. Regressions
// here (per-step goroutine spawns, batch or touch list growth,
// rebinning scratch) show up as a nonzero count.
func TestStepZeroAllocs(t *testing.T) {
	sys, st, err := molgen.Build(molgen.WaterBox(16, 7))
	if err != nil {
		t.Fatal(err)
	}
	ff := forcefield.Standard(7.0)
	e, err := New(sys, ff, st, 8)
	if err != nil {
		t.Fatal(err)
	}
	e.RebalanceEvery = 0
	for i := 0; i < 5; i++ {
		e.Step(0.5)
	}
	if allocs := testing.AllocsPerRun(20, func() { e.Step(0.5) }); allocs != 0 {
		t.Fatalf("steady-state Step allocates: %v allocs/step, want 0", allocs)
	}
}

// TestStepZeroAllocsTraced guards the instrumentation: with a trace log
// attached, the steady-state step must still not allocate. The recorder
// pre-reserves its record slice and span arena, so per-step emission
// (per-worker phase records, reduce, integrate, step marker) reuses that
// capacity.
func TestStepZeroAllocsTraced(t *testing.T) {
	sys, st, err := molgen.Build(molgen.WaterBox(16, 7))
	if err != nil {
		t.Fatal(err)
	}
	ff := forcefield.Standard(7.0)
	e, err := New(sys, ff, st, 8)
	if err != nil {
		t.Fatal(err)
	}
	e.RebalanceEvery = 0
	l := trace.NewLog()
	e.SetTrace(l)
	for i := 0; i < 5; i++ {
		e.Step(0.5)
	}
	if allocs := testing.AllocsPerRun(20, func() { e.Step(0.5) }); allocs != 0 {
		t.Fatalf("traced steady-state Step allocates: %v allocs/step, want 0", allocs)
	}
	if len(l.Records) == 0 {
		t.Fatal("trace recorded nothing")
	}
}

// TestStepPMEZeroAllocsRealSpace guards the PME hot path of the cell
// walk: on steps that do not hit a reciprocal-evaluation boundary (the
// MTS period here is longer than the measured window), a
// full-electrostatics dynamics step runs entirely in the erfc
// real-space path and must not allocate.
func TestStepPMEZeroAllocsRealSpace(t *testing.T) {
	sys, st, err := molgen.Build(molgen.WaterBox(16, 7))
	if err != nil {
		t.Fatal(err)
	}
	ff := forcefield.Standard(7.0)
	e, err := New(sys, ff, st, 8)
	if err != nil {
		t.Fatal(err)
	}
	e.RebalanceEvery = 0
	if err := EnableFullElectrostatics(e, 1.0, 0.45, 1000); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		e.Step(0.5)
	}
	if allocs := testing.AllocsPerRun(20, func() { e.Step(0.5) }); allocs != 0 {
		t.Fatalf("steady-state PME real-space Step allocates: %v allocs/step, want 0", allocs)
	}
}

// TestStepClusterZeroAllocs guards the cluster-mode hot path: once the
// cluster list is built and the worker pool is up, a dynamics step —
// including list rebuilds, whose builder scratch, slot tables, and
// worker slot buffers are all reused — must not allocate.
func TestStepClusterZeroAllocs(t *testing.T) {
	sys, st, err := molgen.Build(molgen.WaterBox(16, 7))
	if err != nil {
		t.Fatal(err)
	}
	ff := forcefield.Standard(7.0)
	e, err := New(sys, ff, st, 8)
	if err != nil {
		t.Fatal(err)
	}
	e.RebalanceEvery = 0
	if err := e.EnableClusterLists(4, 4, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		e.Step(0.5)
	}
	if allocs := testing.AllocsPerRun(20, func() { e.Step(0.5) }); allocs != 0 {
		t.Fatalf("steady-state cluster Step allocates: %v allocs/step, want 0", allocs)
	}
}

// TestStepClusterTabZeroAllocs guards the tabulated hot path: the
// interaction table is built once at EnableTabulatedKernels and shared
// read-only across workers, so steady-state tabulated steps must not
// allocate.
func TestStepClusterTabZeroAllocs(t *testing.T) {
	sys, st, err := molgen.Build(molgen.WaterBox(16, 7))
	if err != nil {
		t.Fatal(err)
	}
	ff := forcefield.Standard(7.0)
	e, err := New(sys, ff, st, 8)
	if err != nil {
		t.Fatal(err)
	}
	e.RebalanceEvery = 0
	if err := e.EnableClusterLists(4, 4, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.EnableTabulatedKernels(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		e.Step(0.5)
	}
	if allocs := testing.AllocsPerRun(20, func() { e.Step(0.5) }); allocs != 0 {
		t.Fatalf("steady-state tabulated Step allocates: %v allocs/step, want 0", allocs)
	}
}

// TestStepClusterZeroAllocsTraced: cluster-mode steps stay
// allocation-free with the trace recorder attached.
func TestStepClusterZeroAllocsTraced(t *testing.T) {
	sys, st, err := molgen.Build(molgen.WaterBox(16, 7))
	if err != nil {
		t.Fatal(err)
	}
	ff := forcefield.Standard(7.0)
	e, err := New(sys, ff, st, 8)
	if err != nil {
		t.Fatal(err)
	}
	e.RebalanceEvery = 0
	if err := e.EnableClusterLists(4, 4, 0); err != nil {
		t.Fatal(err)
	}
	l := trace.NewLog()
	e.SetTrace(l)
	for i := 0; i < 10; i++ {
		e.Step(0.5)
	}
	if allocs := testing.AllocsPerRun(20, func() { e.Step(0.5) }); allocs != 0 {
		t.Fatalf("traced steady-state cluster Step allocates: %v allocs/step, want 0", allocs)
	}
	if len(l.Records) == 0 {
		t.Fatal("trace recorded nothing")
	}
}

// TestStepClusterZeroAllocsGOMAXPROCS: testing.AllocsPerRun pins
// GOMAXPROCS to 1, so the gates above never run the workers truly in
// parallel. This one counts heap allocations with runtime.ReadMemStats
// around steady-state steps at GOMAXPROCS ≥ 2 (the host's CPU count
// when larger), on both nonbonded paths: the fp64 cluster kernel,
// including its lane kernel operand block, which must stay on the
// worker's stack, and the cell walk's batched kernel. Each path runs
// with cutoff electrostatics and with PME (the cluster path on the 4×4
// tabulated kernel) over a window that crosses MTS boundaries, so
// reciprocal evaluations (spline, spread, FFT sweeps, convolution,
// gather on the worker pool) are counted too.
func TestStepClusterZeroAllocsGOMAXPROCS(t *testing.T) {
	procs := max(runtime.NumCPU(), 2)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	for _, c := range []struct {
		clusters, pme bool
	}{{true, false}, {true, true}, {false, false}, {false, true}} {
		sys, st, err := molgen.Build(molgen.WaterBox(16, 7))
		if err != nil {
			t.Fatal(err)
		}
		ff := forcefield.Standard(7.0)
		e, err := New(sys, ff, st, procs)
		if err != nil {
			t.Fatal(err)
		}
		e.RebalanceEvery = 0
		if c.clusters {
			if err := e.EnableClusterLists(4, 4, 0); err != nil {
				t.Fatal(err)
			}
		}
		const mts = 4
		if c.pme {
			if err := EnableFullElectrostatics(e, 1.0, 0.45, mts); err != nil {
				t.Fatal(err)
			}
			if c.clusters {
				if err := e.EnableTabulatedKernels(0); err != nil {
					t.Fatal(err)
				}
			}
		}
		// A longer warm-up than the gates above, then a pre-grown pool of
		// the runtime's wait records. With the goroutines truly
		// parallel, the step's WaitGroup waits and the workers' channel
		// receives draw sudogs from one P's cache and return them to
		// another's, and the runtime allocates a fresh one whenever the
		// drawing P's cache and the shared one are both empty. That is
		// runtime warm-up, not engine allocation, and under the race
		// detector's randomized scheduler the caches random-walk, so
		// step warm-up alone can take thousands of waits to saturate
		// them; warmSudogs fills them directly.
		for i := 0; i < 300; i++ {
			e.Step(0.5)
		}
		warmSudogs()
		for i := 0; i < 20; i++ {
			e.Step(0.5)
		}
		const steps = 20 // five MTS periods
		evals := 0
		if c.pme {
			evals = e.pme.Evals
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < steps; i++ {
			e.Step(0.5)
		}
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n != 0 {
			t.Fatalf("clusters=%v pme=%v GOMAXPROCS=%d: %d heap allocations over %d steady-state steps, want 0",
				c.clusters, c.pme, procs, n, steps)
		}
		if c.pme {
			if n := e.pme.Evals - evals; n != steps/mts {
				t.Fatalf("window ran %d reciprocal evaluations, want %d", n, steps/mts)
			}
		}
	}
}

// warmSudogs grows the runtime's pool of sudogs (the records a blocked
// goroutine waits on) past what its per-P caches can hold: it collects
// first, since a GC empties the shared cache, then parks many goroutines
// at once and releases them, so their sudogs spill into the shared
// cache. Nothing afterwards allocates, so no GC starts to empty it
// again.
func warmSudogs() {
	runtime.GC()
	const n = 1024
	var ready, done sync.WaitGroup
	release := make(chan struct{})
	ready.Add(n)
	done.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer done.Done()
			ready.Done()
			<-release
		}()
	}
	ready.Wait()
	time.Sleep(20 * time.Millisecond) // let the last ones park on release
	close(release)
	done.Wait()
}

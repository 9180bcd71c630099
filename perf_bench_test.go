package gonamd_test

import (
	"sync"
	"testing"
	"time"

	"gonamd"
)

// The step benchmarks run an ApoA-I-scale synthetic system: a ~92,000
// atom water box at the paper benchmark's atom count (92,224), with the
// production 9 Å cutoff. The actual ApoA1 preset is not usable here —
// its unminimized synthetic packing has steric overlaps that blow up
// within a few femtoseconds — so an equally sized water box stands in,
// briefly minimized (once, shared across benchmarks) so the dynamics
// the timer sees are thermally calm.
const (
	benchSide   = 97.3 // Å → ~92.3k atoms at water density
	benchCutoff = 9.0
	benchDt     = 0.5
)

var (
	benchOnce sync.Once
	benchSys  *gonamd.System
	benchSt   *gonamd.State // minimized; clone before use
	benchFF   *gonamd.ForceField
)

func benchSystem(b *testing.B) (*gonamd.System, *gonamd.State, *gonamd.ForceField) {
	b.Helper()
	benchOnce.Do(func() {
		sys, st, err := gonamd.BuildSystem(gonamd.WaterBoxSpec(benchSide, 11))
		if err != nil {
			panic(err)
		}
		ff := gonamd.StandardForceField(benchCutoff)
		eng, err := gonamd.NewSequential(sys, ff, st, gonamd.WithClusterLists(4, 4))
		if err != nil {
			panic(err)
		}
		eng.Minimize(30, 0.2)
		benchSys, benchSt, benchFF = sys, st, ff
	})
	return benchSys, benchSt.Clone(), benchFF
}

func reportSteps(b *testing.B) {
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "steps/sec")
}

// BenchmarkStepParClusterTraced is BenchmarkStepParCluster with a trace
// log attached: the per-phase instrumentation must stay within 0
// allocs/step and add only marginal (≤2%) wall overhead.
func BenchmarkStepParClusterTraced(b *testing.B) {
	sys, st, ff := benchSystem(b)
	tlog := gonamd.NewTraceLog()
	eng, err := gonamd.NewParallel(sys, ff, st, 8,
		gonamd.WithClusterLists(8, 8), gonamd.WithClusterSkin(0.5),
		gonamd.WithRebalanceEvery(0), gonamd.WithTrace(tlog))
	if err != nil {
		b.Fatal(err)
	}
	eng.ComputeForces()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step(benchDt)
	}
	b.StopTimer()
	reportSteps(b)
	rep := gonamd.AnalyzeTrace(tlog, gonamd.ProjectionsOptions{})
	b.ReportMetric(rep.Utilization*100, "util%")
}

// BenchmarkStepParClusterMetrics is BenchmarkStepParCluster with a 1 Hz
// FTDC metrics recorder attached: the telemetry contract is 0
// allocs/step and ≤2% wall overhead — publication is a handful of
// atomic word stores, and the sampler goroutine touches only its own
// ring.
func BenchmarkStepParClusterMetrics(b *testing.B) {
	sys, st, ff := benchSystem(b)
	rec := gonamd.NewMetricsRecorder(time.Second)
	defer rec.Close()
	eng, err := gonamd.NewParallel(sys, ff, st, 8,
		gonamd.WithClusterLists(8, 8), gonamd.WithClusterSkin(0.5),
		gonamd.WithRebalanceEvery(0), gonamd.WithMetricsRecorder(rec))
	if err != nil {
		b.Fatal(err)
	}
	eng.ComputeForces()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step(benchDt)
	}
	b.StopTimer()
	reportSteps(b)
}

// BenchmarkStepParBaseline is the parallel engine's cell walk —
// rebinning and screening every candidate pair every step, no cached
// lists — kept as the reference the cluster-list speedup is measured
// against.
func BenchmarkStepParBaseline(b *testing.B) {
	sys, st, ff := benchSystem(b)
	eng, err := gonamd.NewParallel(sys, ff, st, 8, gonamd.WithRebalanceEvery(0))
	if err != nil {
		b.Fatal(err)
	}
	eng.ComputeForces()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step(benchDt)
	}
	b.StopTimer()
	reportSteps(b)
}

// BenchmarkStepParCluster is the cluster-pair pipeline at 8 workers:
// 8×8 cluster pair lists with a 0.5 Å skin, evaluated by the M×N kernel
// (hoisted per-pair invariants, per-cluster accumulation, slot-force
// flush into the sparse deterministic reduction). The speedup over
// BenchmarkStepParBaseline comes from the cached list and the cluster
// layout — no per-candidate screening or batch building, branch-free
// operand staging per tile — and from the tight skin, which the
// amortized rebuild cost makes a net win at this box size (see
// WithClusterSkin).
func BenchmarkStepParCluster(b *testing.B) {
	sys, st, ff := benchSystem(b)
	eng, err := gonamd.NewParallel(sys, ff, st, 8,
		gonamd.WithClusterLists(8, 8), gonamd.WithClusterSkin(0.5),
		gonamd.WithRebalanceEvery(0))
	if err != nil {
		b.Fatal(err)
	}
	eng.ComputeForces() // build lists and warm per-worker buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step(benchDt)
	}
	b.StopTimer()
	reportSteps(b)
}

// BenchmarkStepParClusterTab is BenchmarkStepParCluster with the
// r²-indexed tabulated kernels: same lists, same deterministic
// reduction, but the pair loop is table lookup + FMA — no Sqrt, no
// switching branch (and no Erfc/Exp when PME is on). The default table
// resolution keeps the per-atom force error under 1e-5 of the force
// scale (see DESIGN.md "Tabulated kernels").
func BenchmarkStepParClusterTab(b *testing.B) {
	sys, st, ff := benchSystem(b)
	eng, err := gonamd.NewParallel(sys, ff, st, 8,
		gonamd.WithClusterLists(8, 8), gonamd.WithClusterSkin(0.5),
		gonamd.WithTabulatedKernels(0), gonamd.WithRebalanceEvery(0))
	if err != nil {
		b.Fatal(err)
	}
	eng.ComputeForces()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step(benchDt)
	}
	b.StopTimer()
	reportSteps(b)
}

// BenchmarkStepParClusterPME is the cluster pipeline with full
// electrostatics: erfc real-space evaluated by the analytic cluster
// kernel plus the reciprocal mesh sum on the 4-step impulse-MTS cycle.
// Paired with BenchmarkStepParClusterPMETab below, it isolates what the
// tabulated kernels buy when the real-space electrostatics actually
// contain Erfc/Exp (the shifted-Coulomb StepParCluster baseline has
// neither, so the table can only win back the Sqrt and the switching
// branch there).
func BenchmarkStepParClusterPME(b *testing.B) {
	sys, st, ff := benchSystem(b)
	eng, err := gonamd.NewParallel(sys, ff, st, 8,
		gonamd.WithClusterLists(8, 8), gonamd.WithClusterSkin(0.5),
		gonamd.WithPME(1.0, 3.12/benchCutoff, 4),
		gonamd.WithRebalanceEvery(0))
	if err != nil {
		b.Fatal(err)
	}
	eng.ComputeForces()
	eng.RecipForces()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step(benchDt)
	}
	b.StopTimer()
	reportSteps(b)
}

// BenchmarkStepParClusterPMETab is BenchmarkStepParClusterPME with the
// tabulated real-space kernel: the table folds erfc(βr)/r at build
// time, so the pair loop runs no Sqrt, no Erfc, no Exp.
func BenchmarkStepParClusterPMETab(b *testing.B) {
	sys, st, ff := benchSystem(b)
	eng, err := gonamd.NewParallel(sys, ff, st, 8,
		gonamd.WithClusterLists(8, 8), gonamd.WithClusterSkin(0.5),
		gonamd.WithPME(1.0, 3.12/benchCutoff, 4),
		gonamd.WithTabulatedKernels(0),
		gonamd.WithRebalanceEvery(0))
	if err != nil {
		b.Fatal(err)
	}
	eng.ComputeForces()
	eng.RecipForces()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step(benchDt)
	}
	b.StopTimer()
	reportSteps(b)
}

// BenchmarkStepSeqCluster is the sequential engine on the same 8×8
// cluster lists and 0.5 Å skin, for the single-processor end of the
// cluster scaling story.
func BenchmarkStepSeqCluster(b *testing.B) {
	sys, st, ff := benchSystem(b)
	eng, err := gonamd.NewSequential(sys, ff, st,
		gonamd.WithClusterLists(8, 8), gonamd.WithClusterSkin(0.5))
	if err != nil {
		b.Fatal(err)
	}
	eng.ComputeForces()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step(benchDt)
	}
	b.StopTimer()
	reportSteps(b)
}

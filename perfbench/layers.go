package main

import (
	"math"
	"math/bits"
	"sync"
	"time"

	"gonamd"
	"gonamd/internal/fft"
	"gonamd/internal/forcefield"
	"gonamd/internal/pme"
	"gonamd/internal/seq"
	"gonamd/internal/spatial"
)

// probeRepeats is how many times each one-shot layer probe runs; the
// probe reports the median.
const probeRepeats = 3

// probeLayers is the traced phase of an md-* run: it keeps stepping the
// live engine and times calls into each layer on the live coordinates,
// from this file only (no instrumentation inside the program).
// stepMs50 is the untraced phase's median step, the baseline for
// trace.overhead_frac.
func (m mdConfig) probeLayers(s *mdSetup, cfg runConfig, rep *report, stepMs50 float64) error {
	eng := s.eng
	workers := float64(eng.Workers())
	var stepMs, forceMs, barrierMs, imbalance []float64
	budget := cfg.budget(0.5)
	start := time.Now()
	for len(stepMs) < 5 || time.Since(start) < budget {
		stepMs = append(stepMs, ms(timed(func() { eng.Step(mdDt) })))
		f := ms(timed(func() { eng.ComputeForces() }))
		forceMs = append(forceMs, f)
		loads := eng.WorkerLoads()
		var sum, hi float64
		for _, l := range loads {
			sum += l
			hi = math.Max(hi, l)
		}
		barrierMs = append(barrierMs, f*workers-1e3*sum)
		imbalance = append(imbalance, hi/(sum/workers)-1)
	}
	rep.set("par.force_ms", median(forceMs))
	rep.set("par.integrate_ms", median(stepMs)-median(forceMs))
	rep.set("par.barrier_wait_ms", median(barrierMs))
	rep.set("par.imbalance", median(imbalance))
	rep.set("trace.overhead_frac", median(stepMs)/stepMs50-1)
	rep.set("ldb.rebalance_ms", medianOf(func() { eng.Rebalance() }))

	sys, pos := s.sys, eng.State().Pos
	builder, err := spatial.NewClusterBuilder(sys.Box, 4, 4, mdCutoff+seq.DefaultClusterSkin)
	if err != nil {
		return err
	}
	var list *spatial.ClusterList
	rep.set("spatial.list_build_ms", medianOf(func() { list = builder.Build(pos, sys.ForEachExcludedPair) }))
	pairs := list.NumPairs()
	rep.set("forcefield.nb_pairs", float64(pairs))
	rep.set("spatial.pair_hit_ratio", float64(pairsWithin(list, pos, mdCutoff))/float64(pairs))

	nb, err := m.nonbondedKernel(s.ff, sys, list, pos)
	if err != nil {
		return err
	}
	rep.set("forcefield.nb_ns_per_pair", 1e6*medianOf(nb)/float64(pairs))
	rep.set("forcefield.bonded_ms", medianOf(func() { bondedForces(s.ff, sys, pos) }))

	if m.pme {
		pool := goPool(cfg.nproc)
		recip, err := pme.NewRecip(sys.Box, 1.0, 3.12/mdCutoff)
		if err != nil {
			return err
		}
		q := make([]float64, sys.N())
		for i, a := range sys.Atoms {
			q[i] = a.Charge
		}
		f := make([]gonamd.V3, sys.N())
		recipMs := medianOf(func() {
			clear(f)
			recip.Compute(pos, q, f, pool)
		})
		mesh, err := fft.NewMesh3(recip.K)
		if err != nil {
			return err
		}
		meshMs := medianOf(func() {
			mesh.Forward(pool)
			mesh.Inverse(pool)
		})
		rep.set("pme.recip_ms", recipMs)
		rep.set("fft.mesh_ms", meshMs)
		rep.set("pme.spread_gather_ms", recipMs-meshMs)
	}
	return nil
}

// nonbondedKernel returns a closure evaluating the workload's production
// cluster kernel over every i-cluster of list: the analytic fp64 kernel
// for md-cutoff, the tabulated Ewald kernel for md-pme.
func (m mdConfig) nonbondedKernel(ff *gonamd.ForceField, sys *gonamd.System, list *spatial.ClusterList, pos []gonamd.V3) (func(), error) {
	n := sys.N()
	types := make([]int32, n)
	charges := make([]float64, n)
	for i, a := range sys.Atoms {
		types[i], charges[i] = a.Type, a.Charge
	}
	var d forcefield.ClusterData
	d.LoadStatic(list, types, charges)
	d.LoadPositions(list, pos)
	ics := make([]int32, list.NumI())
	for i := range ics {
		ics[i] = int32(i)
	}
	slots := list.Slots()
	fx := make([]float64, slots, slots+8)
	fy := make([]float64, slots, slots+8)
	fz := make([]float64, slots, slots+8)
	zero := func() { clear(fx); clear(fy); clear(fz) }
	if !m.pme {
		return func() { zero(); ff.NonbondedCluster(list, &d, ics, fx, fy, fz) }, nil
	}
	ewald := ff.WithEwald(3.12 / mdCutoff)
	tab, err := ewald.BuildInteractionTable(0)
	if err != nil {
		return nil, err
	}
	return func() { zero(); ewald.NonbondedClusterTab(tab, list, &d, ics, fx, fy, fz) }, nil
}

// pairsWithin counts the listed slot pairs closer than cutoff: the pairs
// the kernel's work actually contributes from.
func pairsWithin(l *spatial.ClusterList, pos []gonamd.V3, cutoff float64) int {
	rc2 := cutoff * cutoff
	hits := 0
	for ic := 0; ic < l.NumI(); ic++ {
		for _, e := range l.Entries[l.EntryOff[ic]:l.EntryOff[ic+1]] {
			for mask := e.Mask; mask != 0; mask &= mask - 1 {
				bit := bits.TrailingZeros64(mask)
				i := l.Atom[ic*l.M+bit/l.N]
				j := l.Atom[int(e.J)*l.N+bit%l.N]
				if gonamd.MinImage(pos[i], pos[j], l.Box).Norm2() < rc2 {
					hits++
				}
			}
		}
	}
	return hits
}

// bondedSink keeps the bonded probe's energies live so the compiler
// cannot drop the evaluations.
var bondedSink float64

// bondedForces evaluates every bonded term of sys once.
func bondedForces(ff *gonamd.ForceField, sys *gonamd.System, pos []gonamd.V3) {
	box := sys.Box
	var sum float64
	for _, b := range sys.Bonds {
		_, _, e := ff.BondForce(b.Type, pos[b.I], pos[b.J], box)
		sum += e
	}
	for _, a := range sys.Angles {
		_, _, _, e := ff.AngleForce(a.Type, pos[a.I], pos[a.J], pos[a.K], box)
		sum += e
	}
	for _, d := range sys.Dihedrals {
		_, _, _, _, e := ff.DihedralForce(d.Type, pos[d.I], pos[d.J], pos[d.K], pos[d.L], box)
		sum += e
	}
	for _, d := range sys.Impropers {
		_, _, _, _, e := ff.ImproperForce(d.Type, pos[d.I], pos[d.J], pos[d.K], pos[d.L], box)
		sum += e
	}
	bondedSink = sum
}

// medianOf runs f probeRepeats times and returns the median wall time in
// milliseconds.
func medianOf(f func()) float64 {
	var t []float64
	for i := 0; i < probeRepeats; i++ {
		t = append(t, ms(timed(f)))
	}
	return median(t)
}

// goPool is an fft.Pool of n goroutines per Run, the same fork/join
// shape as the engine's persistent pool.
type goPool int

func (p goPool) Workers() int { return int(p) }

func (p goPool) Run(f func(w int)) {
	var wg sync.WaitGroup
	for w := 0; w < int(p); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			f(w)
		}(w)
	}
	wg.Wait()
}

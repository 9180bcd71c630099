package forcefield

import (
	"sync/atomic"
	"unsafe"

	"gonamd/internal/spatial"
)

// Lane kernels: the float64 cluster kernels evaluated four j-lanes at a
// time (lanes_amd64.s). NonbondedCluster dispatches to the analytic lane
// kernel when the host has AVX2, the list is N = 4 wide, and
// electrostatics are the shifted-cutoff form (EwaldBeta == 0);
// NonbondedClusterTab dispatches to the table lane kernel when the host
// has AVX2 and the list is N = 4 wide, for either table. Every other case
// runs the pure-Go loop, which stays the bitwise reference. Both kernels
// share one Go driver (laneArgs.sweep) and one entry/row walk in the
// assembly; they differ only in their pair-math block.
//
// Per pair a lane kernel performs the same IEEE operations in the same
// association as its pure-Go loop — no FMA, the minimum image (and, for
// the analytic kernel, the switching region) selected by
// compare-and-blend instead of branches — so each lane's operands and
// results are exactly the pure-Go kernel's. The analytic kernel issues
// one vdivpd and one vsqrtpd per row. The table kernel clamps x·invH to
// float64(Bins) in the float domain before truncating it to a bin index,
// so a lane beyond the cutoff in any box reads the all-zero guard record
// instead of overflowing the int32 conversion. It walks each entry twice:
// a first pass computes every non-empty row's displacements, x, t and
// record addresses and prefetches the records, so the cache misses of
// all rows are in flight together; the second runs the pair math,
// reading each lane's 96-byte record as 128-bit coefficient pairs
// interleaved into coefficient columns. Lanes the pure-Go kernel skips
// (mask bit clear, x ≥ rc², x == 0) are evaluated anyway and then AND-ed
// to +0 before any accumulation; every accumulator starts at +0 and a
// sum that starts at +0 can never become −0, so adding those +0s changes
// no bit. Energies,
// virial and the i-row force partials are added lane by lane in
// ascending-bit order (the pure-Go kernel's order); j-forces are
// per-lane and update lane-wise.

// laneCalls counts cluster-kernel calls served by a lane kernel.
var laneCalls atomic.Uint64

// LaneKernelCalls reports how many NonbondedCluster and
// NonbondedClusterTab calls in this process have run on a lane kernel
// (zero on hosts or lists that take the pure-Go path).
func LaneKernelCalls() uint64 { return laneCalls.Load() }

// ClusterKernelPath names the implementation the float64 cluster kernel
// runs for an n-wide cluster list with the given Ewald splitting
// parameter — NonbondedClusterTab when tabulated is set, NonbondedCluster
// otherwise: "avx2" for the lane kernel, "go" for the pure-Go loop. The
// choice is made from the host CPU and the list geometry alone; there is
// no knob.
func ClusterKernelPath(n int, ewaldBeta float64, tabulated bool) string {
	if useLanes(n, ewaldBeta, tabulated) {
		return "avx2"
	}
	return "go"
}

func useLanes(n int, ewaldBeta float64, tabulated bool) bool {
	return haveLanes && n == 4 && (tabulated || ewaldBeta == 0)
}

// The assembly walks entries with a fixed 24-byte stride and reads J,
// Mask and Mod at offsets 0, 8 and 16; these fail to compile if the
// layout ever changes.
var (
	_ = [1]struct{}{}[unsafe.Sizeof(spatial.ClusterPairEntry{})-24]
	_ = [1]struct{}{}[24-unsafe.Sizeof(spatial.ClusterPairEntry{})]
	_ = [1]struct{}{}[unsafe.Offsetof(spatial.ClusterPairEntry{}.Mask)-8]
	_ = [1]struct{}{}[unsafe.Offsetof(spatial.ClusterPairEntry{}.Mod)-16]
)

// laneArgs is the lane kernels' operand block, shared with the assembly
// through the generated go_asm.h offsets. Constants are stored four
// times over so the assembly can use them as 256-bit memory operands.
type laneArgs struct {
	hx, hy, hz    [4]float64 // half box edges
	nhx, nhy, nhz [4]float64 // negated half box edges
	bx, by, bz    [4]float64 // box edges
	nbx, nby, nbz [4]float64 // negated box edges
	rc2, rs2      [4]float64
	invDenom      [4]float64
	invDenom6     [4]float64
	sw3           [4]float64
	invRc2        [4]float64
	one, two      [4]float64
	three, six    [4]float64
	half, negTwo  [4]float64
	scale14       [4]float64
	modOff        [4]int64  // 2·nt²: pair-table index offset of the 1-4 table
	signBit       [4]uint64 // 1<<63, to negate by XOR

	// Table kernel constants.
	invH, halfH [4]float64
	bins        [4]float64 // float64(Bins): the clamp onto the guard record
	recBytes    [4]uint64  // tabStride·8: byte size of one table record

	// The i-cluster, staged by the Go driver.
	xi, yi, zi, qai [8]float64
	rb2             [8]int64      // 2·type·nt: pair-table row of each i-slot
	fi              [8][4]float64 // i-row force partials (x, y, z, unused)

	// Assembly scratch: the entry's 2·type j-lanes; the analytic
	// kernel's row displacements and switching polynomials; the table
	// kernel's per-row first-pass results and pair parameters.
	tj2        [4]int64
	dx, dy, dz [4]float64
	sw, dswdx  [4]float64
	rows       [8]laneRow
	a, b, qq   [4]float64

	xs, ys, zs, qs *float64 // slot arrays (qs holds raw charges)
	typ            *int32
	fx, fy, fz     *float64
	pair           *pairParam // plain table, 1-4 table at +nt²
	tc             *float64   // table records (table kernel)
	ent            *spatial.ClusterPairEntry
	nent           int
	end            uintptr // assembly scratch: address past the entry run

	evdw float64    // running van der Waals energy
	ev   [2]float64 // running electrostatic energy and virial
}

// laneRow is one i-row of the table lane kernel's first pass.
type laneRow struct {
	dx, dy, dz [4]float64
	x, t       [4]float64
	halfT      [4]float64
	addr       [4]uintptr // record addresses tc + 96·bin
}

func bcast(v float64) [4]float64 { return [4]float64{v, v, v, v} }

// nonbondedClusterLanes is NonbondedCluster on the analytic lane kernel
// (see the dispatch rule in useLanes).
func (p *Params) nonbondedClusterLanes(l *spatial.ClusterList, d *ClusterData, ics []int32, fx, fy, fz []float64) (evdw, eelec, virial float64) {
	if len(l.Entries) == 0 {
		return 0, 0, 0
	}
	// The hoisted constants are computed exactly as NonbondedCluster
	// computes them.
	rc2 := p.Cutoff * p.Cutoff
	rs2 := p.SwitchDist * p.SwitchDist
	denom := (rc2 - rs2) * (rc2 - rs2) * (rc2 - rs2)
	invDenom := 1 / denom

	var k laneArgs
	k.init(p, l, d, rc2, fx, fy, fz)
	k.rs2 = bcast(rs2)
	k.invDenom, k.invDenom6 = bcast(invDenom), bcast(6*invDenom)
	k.sw3 = bcast(rc2 - 3*rs2)
	k.invRc2 = bcast(1 / rc2)
	k.one, k.two, k.three, k.six = bcast(1), bcast(2), bcast(3), bcast(6)
	k.half = bcast(0.5)
	k.signBit = [4]uint64{1 << 63, 1 << 63, 1 << 63, 1 << 63}
	return k.sweep(p, l, d, ics, fx, fy, fz, false)
}

// nonbondedClusterTabLanes is NonbondedClusterTab on the table lane
// kernel (see the dispatch rule in useLanes).
func (p *Params) nonbondedClusterTabLanes(tab *InteractionTable, l *spatial.ClusterList, d *ClusterData, ics []int32, fx, fy, fz []float64) (evdw, eelec, virial float64) {
	if len(l.Entries) == 0 {
		return 0, 0, 0
	}
	var k laneArgs
	k.init(p, l, d, tab.Cutoff2, fx, fy, fz)
	k.invH, k.halfH = bcast(tab.InvSpacing), bcast(tab.HalfSpacing)
	k.bins = bcast(float64(tab.Bins))
	k.recBytes = [4]uint64{8 * tabStride, 8 * tabStride, 8 * tabStride, 8 * tabStride}
	k.tc = &tab.C[0]
	return k.sweep(p, l, d, ics, fx, fy, fz, true)
}

// init sets the operands both lane kernels share.
func (k *laneArgs) init(p *Params, l *spatial.ClusterList, d *ClusterData, rc2 float64, fx, fy, fz []float64) {
	bx, by, bz := l.Box.X, l.Box.Y, l.Box.Z
	hx, hy, hz := bx/2, by/2, bz/2
	k.hx, k.hy, k.hz = bcast(hx), bcast(hy), bcast(hz)
	k.nhx, k.nhy, k.nhz = bcast(-hx), bcast(-hy), bcast(-hz)
	k.bx, k.by, k.bz = bcast(bx), bcast(by), bcast(bz)
	k.nbx, k.nby, k.nbz = bcast(-bx), bcast(-by), bcast(-bz)
	k.rc2 = bcast(rc2)
	k.negTwo = bcast(-2)
	k.scale14 = bcast(p.Scale14Elec)
	off := int64(2 * p.ntypes * p.ntypes)
	k.modOff = [4]int64{off, off, off, off}

	k.xs, k.ys, k.zs, k.qs = &d.X[0], &d.Y[0], &d.Z[0], &d.Q[0]
	k.typ = &d.Typ[0]
	k.fx, k.fy, k.fz = &fx[0], &fy[0], &fz[0]
	k.pair = &p.pair[0]
}

// sweep stages each listed i-cluster, runs the analytic (tab false) or
// table lane kernel over its entry run, and folds the i-row partials
// into the slot forces.
func (k *laneArgs) sweep(p *Params, l *spatial.ClusterList, d *ClusterData, ics []int32, fx, fy, fz []float64, tab bool) (evdw, eelec, virial float64) {
	xs, ys, zs := d.X, d.Y, d.Z
	typ, qas := d.Typ, d.QA
	nt := int64(p.ntypes)
	M := l.M
	for _, ic32 := range ics {
		ic := int(ic32)
		lo, hi := l.EntryOff[ic], l.EntryOff[ic+1]
		if lo == hi {
			continue
		}
		iBase := ic * M
		for a := 0; a < M; a++ {
			s := iBase + a
			k.xi[a&7], k.yi[a&7], k.zi[a&7] = xs[s], ys[s], zs[s]
			k.qai[a&7] = qas[s]
			k.rb2[a&7] = 2 * int64(typ[s]) * nt
			k.fi[a&7] = [4]float64{}
		}
		k.ent = &l.Entries[lo]
		k.nent = int(hi - lo)
		if tab {
			clusterTabLanesAVX2(k)
		} else {
			clusterLanesAVX2(k)
		}
		for a := 0; a < M; a++ {
			s := iBase + a
			fx[s] += k.fi[a&7][0]
			fy[s] += k.fi[a&7][1]
			fz[s] += k.fi[a&7][2]
		}
	}
	return k.evdw, k.ev[0], k.ev[1]
}

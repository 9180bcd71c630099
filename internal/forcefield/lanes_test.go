package forcefield

import (
	"math"
	"math/rand"
	"testing"

	"gonamd/internal/spatial"
	"gonamd/internal/vec"
)

// laneCase is one randomized cluster-kernel input: a parameter set (and,
// for the table kernel, its interaction table), a built list with its
// slot operands, and a shuffled i-cluster order.
type laneCase struct {
	p   *Params
	tab *InteractionTable
	l   *spatial.ClusterList
	d   ClusterData
	ics []int32
}

// laneOpts selects the variations of newLaneCase beyond the analytic
// kernel's default case.
type laneOpts struct {
	// tab builds an interaction table at the given spacing (0 = default)
	// with Ewald electrostatics when ewaldBeta > 0, and adds special
	// partners around the table's edges: a few ulps either side of the
	// cutoff, near-bin-edge separations, and (spacing 0.25, where every
	// half-Å grid separation squares onto a bin edge) exact bin edges.
	tab       bool
	spacing   float64
	ewaldBeta float64
	// bigBox scatters the atoms over a ~4 km box, so clusters span
	// separations whose x·invH overflows an int32.
	bigBox bool
}

// newLaneCase builds a random periodic system around the lane kernel's
// edge cases: positions scattered over three box images (so the slot
// loader wraps them), pairs displaced by exactly the cutoff and exactly
// the switching distance along an axis, duplicate positions (x = 0),
// random exclusions and 1-4 pairs, and padding from small atom counts
// and wide i-clusters.
func newLaneCase(t *testing.T, seed int64, m, n, natoms int, opts laneOpts) *laneCase {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rc := []float64{5, 6, 7.5}[rng.Intn(3)]
	rs := rc - []float64{1, 1.5, 2.25}[rng.Intn(3)]
	p := &Params{
		AtomTypes: []AtomType{
			{Name: "A", Epsilon: 0.15, Sigma: 3.2},
			{Name: "B", Epsilon: 0.05, Sigma: 2.1, Epsilon14: 0.02, Sigma14: 1.9},
			{Name: "C", Epsilon: 0.21, Sigma: 3.5},
			{Name: "D", Epsilon: 0.11, Sigma: 1.2},
		},
		Cutoff:      rc,
		SwitchDist:  rs,
		Scale14Elec: 0.8333,
		Scale14VdW:  0.5,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	c := &laneCase{p: p}
	var extra []float64
	if opts.tab {
		if opts.ewaldBeta > 0 {
			c.p = p.WithEwald(opts.ewaldBeta)
		}
		tab, err := c.p.BuildInteractionTable(opts.spacing)
		if err != nil {
			t.Fatal(err)
		}
		c.tab = tab
		below := math.Nextafter(rc, 0)
		extra = []float64{below, math.Nextafter(below, 0), math.Nextafter(rc, math.Inf(1))}
		for k := 0; k < 8; k++ {
			extra = append(extra, math.Sqrt(float64(rng.Intn(tab.Bins))*tab.Spacing))
		}
		if opts.spacing == 0.25 {
			for j := 1; float64(j) <= 2*rc; j++ {
				extra = append(extra, 0.5*float64(j))
			}
		}
	}
	// Edges a multiple of 1/64 and ≥ 2·rc + 1/2, so an on-grid atom
	// displaced by exactly rc stays in the box and inside the half-box
	// minimum image.
	edge := func() float64 { return 2*rc + 0.5 + float64(rng.Intn(12*64))/64 }
	if opts.bigBox {
		edge = func() float64 { return 4096 + float64(rng.Intn(12*64))/64 }
	}
	box := vec.New(edge(), edge(), edge())
	onGrid := func(lim float64) float64 { return float64(rng.Intn(int(lim*64))) / 64 }

	pos := make([]vec.V3, natoms)
	types := make([]int32, natoms)
	charges := make([]float64, natoms)
	for i := range pos {
		types[i] = int32(rng.Intn(len(p.AtomTypes)))
		charges[i] = rng.Float64()*1.6 - 0.8
		switch k := rng.Intn(8); {
		case i > 0 && (k < 3 || k < 5 && len(extra) > 0):
			// Partner of an on-grid atom at exactly rc, exactly rs, the
			// same position, or one of the table's edge separations.
			base := vec.New(onGrid(box.X-rc), onGrid(box.Y-rc), onGrid(box.Z-rc))
			pos[i-1] = base
			var off float64
			if k < 3 {
				off = []float64{rc, rs, 0}[k]
			} else {
				off = extra[rng.Intn(len(extra))]
			}
			switch rng.Intn(3) {
			case 0:
				pos[i] = base.Add(vec.New(off, 0, 0))
			case 1:
				pos[i] = base.Add(vec.New(0, off, 0))
			default:
				pos[i] = base.Add(vec.New(0, 0, off))
			}
		default:
			// Anywhere in the three images around the primary box.
			pos[i] = vec.New((3*rng.Float64()-1)*box.X, (3*rng.Float64()-1)*box.Y, (3*rng.Float64()-1)*box.Z)
		}
	}
	excl := make(map[[2]int32]bool)
	for k := 0; k < natoms/2; k++ {
		i, j := int32(rng.Intn(natoms)), int32(rng.Intn(natoms))
		if rng.Intn(3) == 0 && natoms > 1 {
			i = int32(rng.Intn(natoms - 1)) // favour the special partners
			j = i + 1
		}
		if i == j {
			continue
		}
		if i > j {
			i, j = j, i
		}
		excl[[2]int32{i, j}] = rng.Intn(2) == 0
	}
	forEach := func(fn func(i, j int32, modified bool)) {
		for i := int32(0); i < int32(natoms); i++ {
			for j := i + 1; j < int32(natoms); j++ {
				if mod, ok := excl[[2]int32{i, j}]; ok {
					fn(i, j, mod)
				}
			}
		}
	}
	b, err := spatial.NewClusterBuilder(box, m, n, rc+rng.Float64()*1.5)
	if err != nil {
		t.Fatal(err)
	}
	c.l = b.Build(pos, forEach)
	c.d.LoadStatic(c.l, types, charges)
	c.d.LoadPositions(c.l, pos)
	c.ics = make([]int32, c.l.NumI())
	for i := range c.ics {
		c.ics[i] = int32(i)
	}
	rng.Shuffle(len(c.ics), func(i, j int) { c.ics[i], c.ics[j] = c.ics[j], c.ics[i] })
	return c
}

type laneResult struct {
	fx, fy, fz          []float64
	evdw, eelec, virial float64
}

func (c *laneCase) run(kern func(p *Params, l *spatial.ClusterList, d *ClusterData, ics []int32, fx, fy, fz []float64) (float64, float64, float64)) laneResult {
	ns := c.l.Slots()
	r := laneResult{
		fx: make([]float64, ns, ns+8),
		fy: make([]float64, ns, ns+8),
		fz: make([]float64, ns, ns+8),
	}
	r.evdw, r.eelec, r.virial = kern(c.p, c.l, &c.d, c.ics, r.fx, r.fy, r.fz)
	return r
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func checkLaneResults(t *testing.T, name string, got, want laneResult) {
	t.Helper()
	for s := range want.fx {
		if !sameBits(got.fx[s], want.fx[s]) || !sameBits(got.fy[s], want.fy[s]) || !sameBits(got.fz[s], want.fz[s]) {
			t.Fatalf("%s: slot %d force (%v %v %v), want (%v %v %v)", name, s,
				got.fx[s], got.fy[s], got.fz[s], want.fx[s], want.fy[s], want.fz[s])
		}
	}
	if !sameBits(got.evdw, want.evdw) || !sameBits(got.eelec, want.eelec) || !sameBits(got.virial, want.virial) {
		t.Fatalf("%s: energies (%v %v %v), want (%v %v %v)", name,
			got.evdw, got.eelec, got.virial, want.evdw, want.eelec, want.virial)
	}
}

// runLaneCase checks NonbondedCluster (whatever path it dispatches to),
// the pure-Go loop and the scalar replay against each other bit for
// bit, and pins the dispatch: the lane kernel runs exactly when
// ClusterKernelPath says so.
func runLaneCase(t *testing.T, seed int64, m, n, natoms int) {
	c := newLaneCase(t, seed, m, n, natoms, laneOpts{})
	goRes := c.run((*Params).nonbondedClusterGo)
	checkLaneResults(t, "scalar replay vs pure Go", c.run((*Params).NonbondedClusterRef), goRes)

	before := LaneKernelCalls()
	res := c.run((*Params).NonbondedCluster)
	ran := LaneKernelCalls() - before
	if lanes := ClusterKernelPath(n, 0, false) == "avx2"; lanes != (ran == 1) {
		t.Fatalf("%dx%d: path %q but lane kernel ran %d times", m, n, ClusterKernelPath(n, 0, false), ran)
	}
	checkLaneResults(t, "NonbondedCluster vs pure Go", res, goRes)
}

// FuzzClusterKernelLanes: the lane kernel is bitwise identical to the
// pure-Go kernel (forces, energies, virial) over random periodic boxes,
// M ∈ 1..8 with N = 4, and — for one in eight inputs — an N ≠ 4 list
// that must fall back to the pure-Go loop.
func FuzzClusterKernelLanes(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(60), uint8(1))
	f.Add(int64(2), uint8(0), uint8(5), uint8(2))
	f.Add(int64(3), uint8(7), uint8(150), uint8(3))
	f.Add(int64(4), uint8(1), uint8(90), uint8(0))
	f.Add(int64(5), uint8(5), uint8(200), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, m, natoms, sel uint8) {
		n := 4
		if sel%8 == 0 {
			n = []int{1, 2, 3, 5, 6, 7, 8}[int(sel/8)%7]
		}
		mm := int(m)%8 + 1
		if mm*n > 64 {
			mm = 64 / n
		}
		runLaneCase(t, seed, mm, n, 2+int(natoms))
	})
}

// TestClusterKernelLanes runs the fuzz property over a fixed sweep so
// plain `go test` covers every M with N = 4, and the fallback widths.
func TestClusterKernelLanes(t *testing.T) {
	for m := 1; m <= 8; m++ {
		for seed := int64(0); seed < 4; seed++ {
			runLaneCase(t, seed*8+int64(m), m, 4, 40+int(seed)*50)
		}
	}
	for _, mn := range [][2]int{{4, 8}, {8, 2}, {3, 3}} {
		runLaneCase(t, 99, mn[0], mn[1], 120)
	}
	if haveLanes && ClusterKernelPath(4, 0, false) != "avx2" {
		t.Fatal("AVX2 host but N = 4 lists do not take the lane kernel")
	}
	if ClusterKernelPath(4, 0.3, false) != "go" || ClusterKernelPath(8, 0, false) != "go" {
		t.Fatal("Ewald or N ≠ 4 lists must take the pure-Go loop")
	}
}

// tabLaneStats walks every lane the table lane kernel evaluates (all
// four lanes of each non-empty row) and reports the largest x·invH, the
// active lanes (those the pure-Go loop evaluates) whose x lands exactly
// on a bin edge, and the lanes exactly at x = rc².
func tabLaneStats(c *laneCase) (maxXH float64, edges, onCutoff int) {
	l, d, tab := c.l, &c.d, c.tab
	box := l.Box
	mi := func(v, h, b float64) float64 {
		if v > h {
			return v - b
		} else if v < -h {
			return v + b
		}
		return v
	}
	for ic := 0; ic < l.NumI(); ic++ {
		for _, e := range l.Entries[l.EntryOff[ic]:l.EntryOff[ic+1]] {
			for a := 0; a < l.M; a++ {
				row := (e.Mask >> uint(a*l.N)) & (1<<uint(l.N) - 1)
				if row == 0 {
					continue
				}
				s := ic*l.M + a
				for b := 0; b < l.N; b++ {
					sj := int(e.J)*l.N + b
					dx := mi(d.X[s]-d.X[sj], box.X/2, box.X)
					dy := mi(d.Y[s]-d.Y[sj], box.Y/2, box.Y)
					dz := mi(d.Z[s]-d.Z[sj], box.Z/2, box.Z)
					x := dx*dx + dy*dy + dz*dz
					xh := x * tab.InvSpacing
					maxXH = math.Max(maxXH, xh)
					if x == tab.Cutoff2 {
						onCutoff++
					}
					if row&(1<<uint(b)) != 0 && x != 0 && x < tab.Cutoff2 && xh == math.Trunc(xh) {
						edges++
					}
				}
			}
		}
	}
	return maxXH, edges, onCutoff
}

// runTabLaneCase checks NonbondedClusterTab (whatever path it dispatches
// to) against the pure-Go table loop bit for bit, and pins the dispatch:
// the lane kernel runs exactly when ClusterKernelPath says so.
func runTabLaneCase(t *testing.T, seed int64, m, n, natoms int, opts laneOpts) *laneCase {
	opts.tab = true
	c := newLaneCase(t, seed, m, n, natoms, opts)
	goRes := c.run(func(p *Params, l *spatial.ClusterList, d *ClusterData, ics []int32, fx, fy, fz []float64) (float64, float64, float64) {
		return p.nonbondedClusterTabGo(c.tab, l, d, ics, fx, fy, fz)
	})
	before := LaneKernelCalls()
	res := c.run(func(p *Params, l *spatial.ClusterList, d *ClusterData, ics []int32, fx, fy, fz []float64) (float64, float64, float64) {
		return p.NonbondedClusterTab(c.tab, l, d, ics, fx, fy, fz)
	})
	ran := LaneKernelCalls() - before
	path := ClusterKernelPath(n, c.p.EwaldBeta, true)
	if lanes := path == "avx2"; lanes != (ran == 1) {
		t.Fatalf("%dx%d %+v: path %q but lane kernel ran %d times", m, n, opts, path, ran)
	}
	checkLaneResults(t, "NonbondedClusterTab vs pure Go", res, goRes)
	return c
}

// tabLaneOpts decodes a fuzz selector into a table variant: shifted or
// Ewald electrostatics, default or coarse (0.25 Å², bin-edge) spacing,
// water-scale or ~4 km box.
func tabLaneOpts(sel uint8) laneOpts {
	o := laneOpts{bigBox: sel&4 != 0}
	if sel&1 != 0 {
		o.ewaldBeta = 0.35
	}
	if sel&2 != 0 {
		o.spacing = 0.25
	}
	return o
}

// FuzzClusterKernelTabLanes: the table lane kernel is bitwise identical
// to the pure-Go table kernel (forces, energies, virial) over random
// periodic boxes, shifted and Ewald tables at the default and a coarse
// spacing, M ∈ 1..8 with N = 4, and — for one in eight inputs — an N ≠ 4
// list that must fall back to the pure-Go loop.
func FuzzClusterKernelTabLanes(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(60), uint8(1))
	f.Add(int64(2), uint8(0), uint8(5), uint8(2))
	f.Add(int64(3), uint8(7), uint8(150), uint8(3))
	f.Add(int64(4), uint8(1), uint8(90), uint8(0))
	f.Add(int64(5), uint8(5), uint8(200), uint8(5))
	f.Add(int64(6), uint8(3), uint8(120), uint8(6))
	f.Fuzz(func(t *testing.T, seed int64, m, natoms, sel uint8) {
		n := 4
		if sel%8 == 0 {
			n = []int{1, 2, 3, 5, 6, 7, 8}[int(sel/8)%7]
		}
		mm := int(m)%8 + 1
		if mm*n > 64 {
			mm = 64 / n
		}
		runTabLaneCase(t, seed, mm, n, 2+int(natoms), tabLaneOpts(sel/8))
	})
}

// TestClusterKernelTabLanes runs the fuzz property over a fixed sweep:
// every M with N = 4 for each table variant, the fallback widths, and
// non-vacuity checks that the sweep reaches exact bin edges, lanes at
// exactly rc², and beyond-cutoff lanes whose unclamped bin index would
// overflow an int32.
func TestClusterKernelTabLanes(t *testing.T) {
	var edges, onCutoff int
	var maxXH float64
	for sel := uint8(0); sel < 8; sel++ {
		opts := tabLaneOpts(sel)
		for m := 1; m <= 8; m++ {
			for seed := int64(0); seed < 2; seed++ {
				c := runTabLaneCase(t, seed*8+int64(m)+int64(sel)*64, m, 4, 40+int(seed)*80, opts)
				xh, e, oc := tabLaneStats(c)
				maxXH = math.Max(maxXH, xh)
				edges += e
				onCutoff += oc
			}
		}
	}
	for _, mn := range [][2]int{{4, 8}, {8, 2}, {3, 3}} {
		for sel := uint8(0); sel < 8; sel++ {
			runTabLaneCase(t, 99+int64(sel), mn[0], mn[1], 120, tabLaneOpts(sel))
		}
	}
	if edges == 0 || onCutoff == 0 || maxXH < math.MaxInt32 {
		t.Fatalf("sweep missed an edge case: %d exact bin edges, %d lanes at rc², max x·invH %g", edges, onCutoff, maxXH)
	}
	if haveLanes && (ClusterKernelPath(4, 0, true) != "avx2" || ClusterKernelPath(4, 0.3, true) != "avx2") {
		t.Fatal("AVX2 host but N = 4 lists do not take the table lane kernel")
	}
	if ClusterKernelPath(8, 0.3, true) != "go" || ClusterKernelPath(3, 0, true) != "go" {
		t.Fatal("N ≠ 4 lists must take the pure-Go table loop")
	}
}

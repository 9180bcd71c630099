// Package fft provides the deterministic fast Fourier transforms behind
// the particle-mesh Ewald solver (internal/pme): an iterative in-place
// radix-2 complex FFT with precomputed twiddle factors, and a 3D mesh
// transform performed as three independent pencil sweeps. There is no
// cgo and no hidden state; every 1D pencil transform is computed
// independently, so the 3D result is bitwise identical no matter how the
// pencils are divided among workers.
package fft

import (
	"fmt"
	"math"
	"math/bits"
)

// Pool runs a data-parallel region: Run invokes f(w) for every worker
// index w in [0, Workers()) — possibly concurrently — and returns when
// all calls have finished. Implementations must guarantee the calls see
// each other's prior writes only through Run's completion (the usual
// fork/join model). Serial is the trivial implementation; internal/par
// adapts its persistent worker pool to this interface.
type Pool interface {
	Workers() int
	Run(f func(w int))
}

// Serial is the single-threaded Pool: Run calls f(0) inline.
type Serial struct{}

// Workers returns 1.
func (Serial) Workers() int { return 1 }

// Run calls f(0) on the calling goroutine.
func (Serial) Run(f func(w int)) { f(0) }

// span returns worker w's half-open slice [lo, hi) of n items under an
// even contiguous partition — the fixed work division every sweep uses.
func span(n, workers, w int) (lo, hi int) {
	lo = n * w / workers
	hi = n * (w + 1) / workers
	return
}

// Plan holds the precomputed state of a 1D complex FFT of power-of-two
// length n: the bit-reversal permutation and the twiddle factors of every
// butterfly stage.
type Plan struct {
	n   int
	rev []int32
	// cosTab/sinTab hold e^{-2πi k/n} for k in [0, n/2): the forward
	// twiddles. The inverse transform conjugates on the fly.
	cosTab []float64
	sinTab []float64
}

// NewPlan builds a plan for length n, which must be a power of two ≥ 1.
func NewPlan(n int) (*Plan, error) {
	if n < 1 || n&(n-1) != 0 {
		return nil, fmt.Errorf("fft: length %d is not a power of two", n)
	}
	p := &Plan{n: n, rev: make([]int32, n)}
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := range p.rev {
		p.rev[i] = int32(bits.Reverse64(uint64(i)) >> shift)
	}
	p.cosTab = make([]float64, n/2)
	p.sinTab = make([]float64, n/2)
	for k := 0; k < n/2; k++ {
		ang := -2 * math.Pi * float64(k) / float64(n)
		p.cosTab[k] = math.Cos(ang)
		p.sinTab[k] = math.Sin(ang)
	}
	return p, nil
}

// N returns the transform length.
func (p *Plan) N() int { return p.n }

// Forward computes the in-place forward DFT
//
//	X[m] = Σ_k x[k] · e^{-2πi m k / n}
//
// over the complex sequence (re[k], im[k]). len(re) and len(im) must
// equal the plan length.
func (p *Plan) Forward(re, im []float64) { p.transform(re, im, false) }

// Inverse computes the in-place unnormalized inverse DFT (conjugate
// twiddles, no 1/n scaling): applying Forward then Inverse multiplies
// the sequence by n.
func (p *Plan) Inverse(re, im []float64) { p.transform(re, im, true) }

func (p *Plan) transform(re, im []float64, inverse bool) {
	n := p.n
	if len(re) != n || len(im) != n {
		panic("fft: slice length does not match plan")
	}
	for i, j := range p.rev {
		if int32(i) < j {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size // twiddle table stride
		for start := 0; start < n; start += size {
			for k, tw := 0, 0; k < half; k, tw = k+1, tw+step {
				wr, wi := p.cosTab[tw], p.sinTab[tw]
				if inverse {
					wi = -wi
				}
				a, b := start+k, start+k+half
				tr := re[b]*wr - im[b]*wi
				ti := re[b]*wi + im[b]*wr
				re[b] = re[a] - tr
				im[b] = im[a] - ti
				re[a] += tr
				im[a] += ti
			}
		}
	}
}

// Mesh3 is a dense K0×K1×K2 complex mesh stored as flat Re/Im arrays in
// row-major order (x slowest, z fastest: index (x·K1 + y)·K2 + z), with
// FFT plans for each axis. The 3D transform runs as three pencil sweeps
// (z, then y, then x), each sweep parallelizable over pencils through a
// Pool.
type Mesh3 struct {
	K  [3]int
	Re []float64
	Im []float64

	plans [3]*Plan
	// Per-worker strided-pencil gather/scatter scratch, sized on first use
	// for the pool's worker count (the y and x sweeps are strided; copying
	// a pencil into contiguous scratch keeps the butterfly loops simple
	// and cache-friendly).
	scratch [][]float64

	// The current sweep's direction and worker count, read by the pencil
	// sweeps below. The sweeps are bound once as method values so a
	// transform hands the pool preallocated funcs instead of allocating
	// a closure per sweep.
	inverse                bool
	workers                int
	sweepZ, sweepY, sweepX func(w int)
}

// NewMesh3 allocates a zeroed mesh; every dimension must be a power of
// two ≥ 2.
func NewMesh3(k [3]int) (*Mesh3, error) {
	m := &Mesh3{K: k}
	m.sweepZ, m.sweepY, m.sweepX = m.zSweep, m.ySweep, m.xSweep
	for d := 0; d < 3; d++ {
		if k[d] < 2 {
			return nil, fmt.Errorf("fft: mesh dimension %d is %d, need ≥ 2", d, k[d])
		}
		plan, err := NewPlan(k[d])
		if err != nil {
			return nil, err
		}
		m.plans[d] = plan
	}
	n := k[0] * k[1] * k[2]
	m.Re = make([]float64, n)
	m.Im = make([]float64, n)
	return m, nil
}

// Idx returns the flat index of mesh point (x, y, z).
func (m *Mesh3) Idx(x, y, z int) int { return (x*m.K[1]+y)*m.K[2] + z }

// Len returns the total number of mesh points.
func (m *Mesh3) Len() int { return len(m.Re) }

// Clear zeroes the mesh.
func (m *Mesh3) Clear() {
	for i := range m.Re {
		m.Re[i] = 0
		m.Im[i] = 0
	}
}

func (m *Mesh3) ensureScratch(workers int) {
	for len(m.scratch) < workers {
		maxK := m.K[0]
		if m.K[1] > maxK {
			maxK = m.K[1]
		}
		m.scratch = append(m.scratch, make([]float64, 2*maxK))
	}
}

// Forward computes the in-place 3D forward DFT by sweeping pencils along
// z, y, then x. Each pencil is transformed independently, so the result
// is bitwise identical for any pool worker count.
func (m *Mesh3) Forward(pool Pool) { m.sweep3(pool, false) }

// Inverse computes the unnormalized in-place 3D inverse DFT (Forward
// followed by Inverse scales the mesh by K0·K1·K2).
func (m *Mesh3) Inverse(pool Pool) { m.sweep3(pool, true) }

func (m *Mesh3) sweep3(pool Pool, inverse bool) {
	m.workers = pool.Workers()
	m.ensureScratch(m.workers)
	m.inverse = inverse
	pool.Run(m.sweepZ)
	pool.Run(m.sweepY)
	pool.Run(m.sweepX)
}

// zSweep transforms worker w's share of the z pencils, contiguous runs
// of length K2.
func (m *Mesh3) zSweep(w int) {
	k0, k1, k2 := m.K[0], m.K[1], m.K[2]
	lo, hi := span(k0*k1, m.workers, w)
	for p := lo; p < hi; p++ {
		base := p * k2
		m.plans[2].transform(m.Re[base:base+k2], m.Im[base:base+k2], m.inverse)
	}
}

// ySweep transforms worker w's share of the y pencils, which stride by
// K2, through the worker's scratch.
func (m *Mesh3) ySweep(w int) {
	k0, k1, k2 := m.K[0], m.K[1], m.K[2]
	lo, hi := span(k0*k2, m.workers, w)
	sc := m.scratch[w]
	re, im := sc[:k1], sc[k1:2*k1]
	for p := lo; p < hi; p++ {
		x, z := p/k2, p%k2
		base := x*k1*k2 + z
		for y := 0; y < k1; y++ {
			re[y] = m.Re[base+y*k2]
			im[y] = m.Im[base+y*k2]
		}
		m.plans[1].transform(re, im, m.inverse)
		for y := 0; y < k1; y++ {
			m.Re[base+y*k2] = re[y]
			m.Im[base+y*k2] = im[y]
		}
	}
}

// xSweep transforms worker w's share of the x pencils, which stride by
// K1·K2, through the worker's scratch.
func (m *Mesh3) xSweep(w int) {
	k0, k1, k2 := m.K[0], m.K[1], m.K[2]
	stride := k1 * k2
	lo, hi := span(k1*k2, m.workers, w)
	sc := m.scratch[w]
	re, im := sc[:k0], sc[k0:2*k0]
	for p := lo; p < hi; p++ {
		for x := 0; x < k0; x++ {
			re[x] = m.Re[p+x*stride]
			im[x] = m.Im[p+x*stride]
		}
		m.plans[0].transform(re, im, m.inverse)
		for x := 0; x < k0; x++ {
			m.Re[p+x*stride] = re[x]
			m.Im[p+x*stride] = im[x]
		}
	}
}

// NextPow2 returns the smallest power of two ≥ n (and ≥ 2).
func NextPow2(n int) int {
	k := 2
	for k < n {
		k <<= 1
	}
	return k
}

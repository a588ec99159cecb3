package workload

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// Kernel is a real, runnable port of a Polybench kernel whose outer loop
// can be partitioned by rows — the same property the paper's OpenCL
// work-item partitioning exploits. Any row range may be computed in any
// order or concurrently; results are identical (partition invariance).
type Kernel interface {
	// Name returns the Polybench kernel name.
	Name() string
	// Rows returns the size of the partitionable outer dimension.
	Rows() int
	// RunRows computes output rows [lo, hi).
	RunRows(lo, hi int)
	// Checksum returns a deterministic digest of the output for
	// validation across partitionings.
	Checksum() float64
}

// lcg is a small deterministic generator for reproducible kernel inputs.
type lcg struct{ state uint64 }

func (l *lcg) next() float64 {
	l.state = l.state*6364136223846793005 + 1442695040888963407
	// Map the top bits to [0, 1).
	return float64(l.state>>11) / float64(1<<53)
}

func fillMatrix(n, m int, seed uint64) [][]float64 {
	g := &lcg{state: seed}
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, m)
		for j := range a[i] {
			a[i][j] = g.next()*2 - 1
		}
	}
	return a
}

func checksumMatrix(a [][]float64) float64 {
	s := 0.0
	for i, row := range a {
		w := 1 + float64(i%7)
		for j, v := range row {
			s += v * w * (1 + float64(j%5)/10)
		}
	}
	return s
}

// --- GEMM: C = alpha·A·B + beta·C ----------------------------------------

// GemmKernel is the Polybench GEMM kernel.
type GemmKernel struct {
	n           int
	alpha, beta float64
	a, b, c     [][]float64
}

// NewGemmKernel builds an n×n GEMM instance with deterministic inputs.
func NewGemmKernel(n int) *GemmKernel {
	return &GemmKernel{
		n: n, alpha: 1.5, beta: 1.2,
		a: fillMatrix(n, n, 1),
		b: fillMatrix(n, n, 2),
		c: fillMatrix(n, n, 3),
	}
}

// Name implements Kernel.
func (k *GemmKernel) Name() string { return "GEMM" }

// Rows implements Kernel.
func (k *GemmKernel) Rows() int { return k.n }

// RunRows implements Kernel.
func (k *GemmKernel) RunRows(lo, hi int) {
	for i := lo; i < hi; i++ {
		for j := 0; j < k.n; j++ {
			s := 0.0
			for p := 0; p < k.n; p++ {
				s += k.a[i][p] * k.b[p][j]
			}
			k.c[i][j] = k.alpha*s + k.beta*k.c[i][j]
		}
	}
}

// Checksum implements Kernel.
func (k *GemmKernel) Checksum() float64 { return checksumMatrix(k.c) }

// --- 2MM: D = A·B, E = D·C ------------------------------------------------

// TwoMMKernel is the Polybench 2MM kernel (two chained multiplies). The
// partitionable dimension covers both multiplies: rows [0,n) compute D,
// rows [n,2n) compute E, so callers must run all of [0,n) before [n,2n).
// RunAll and Partitioner handle the phase split automatically via Phases.
type TwoMMKernel struct {
	n       int
	a, b, c [][]float64
	d, e    [][]float64
}

// NewTwoMMKernel builds an n×n 2MM instance.
func NewTwoMMKernel(n int) *TwoMMKernel {
	return &TwoMMKernel{
		n: n,
		a: fillMatrix(n, n, 4),
		b: fillMatrix(n, n, 5),
		c: fillMatrix(n, n, 6),
		d: makeZero(n, n),
		e: makeZero(n, n),
	}
}

func makeZero(n, m int) [][]float64 {
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, m)
	}
	return a
}

// Name implements Kernel.
func (k *TwoMMKernel) Name() string { return "2MM" }

// Rows implements Kernel.
func (k *TwoMMKernel) Rows() int { return 2 * k.n }

// Phases returns the row boundaries between dependent phases: rows within
// a phase are independent, phases must run in order.
func (k *TwoMMKernel) Phases() []int { return []int{k.n, 2 * k.n} }

// RunRows implements Kernel.
func (k *TwoMMKernel) RunRows(lo, hi int) {
	for r := lo; r < hi; r++ {
		if r < k.n {
			i := r
			for j := 0; j < k.n; j++ {
				s := 0.0
				for p := 0; p < k.n; p++ {
					s += k.a[i][p] * k.b[p][j]
				}
				k.d[i][j] = s
			}
		} else {
			i := r - k.n
			for j := 0; j < k.n; j++ {
				s := 0.0
				for p := 0; p < k.n; p++ {
					s += k.d[i][p] * k.c[p][j]
				}
				k.e[i][j] = s
			}
		}
	}
}

// Checksum implements Kernel.
func (k *TwoMMKernel) Checksum() float64 { return checksumMatrix(k.e) }

// --- MVT ------------------------------------------------------------------

// MvtKernel is the Polybench MVT kernel: x1 += A·y1, x2 += Aᵀ·y2.
type MvtKernel struct {
	n              int
	a              [][]float64
	x1, x2, y1, y2 []float64
}

// NewMvtKernel builds an n-size MVT instance.
func NewMvtKernel(n int) *MvtKernel {
	g := &lcg{state: 7}
	vec := func() []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = g.next()
		}
		return v
	}
	return &MvtKernel{n: n, a: fillMatrix(n, n, 8), x1: vec(), x2: vec(), y1: vec(), y2: vec()}
}

// Name implements Kernel.
func (k *MvtKernel) Name() string { return "MVT" }

// Rows implements Kernel.
func (k *MvtKernel) Rows() int { return k.n }

// RunRows implements Kernel.
func (k *MvtKernel) RunRows(lo, hi int) {
	for i := lo; i < hi; i++ {
		s1, s2 := 0.0, 0.0
		for j := 0; j < k.n; j++ {
			s1 += k.a[i][j] * k.y1[j]
			s2 += k.a[j][i] * k.y2[j]
		}
		k.x1[i] += s1
		k.x2[i] += s2
	}
}

// Checksum implements Kernel.
func (k *MvtKernel) Checksum() float64 {
	s := 0.0
	for i := range k.x1 {
		s += k.x1[i]*1.7 + k.x2[i]*0.3
	}
	return s
}

// --- SYRK: C = alpha·A·Aᵀ + beta·C -----------------------------------------

// SyrkKernel is the Polybench SYRK kernel.
type SyrkKernel struct {
	n           int
	alpha, beta float64
	a, c        [][]float64
}

// NewSyrkKernel builds an n×n SYRK instance.
func NewSyrkKernel(n int) *SyrkKernel {
	return &SyrkKernel{n: n, alpha: 1.1, beta: 0.9, a: fillMatrix(n, n, 9), c: fillMatrix(n, n, 10)}
}

// Name implements Kernel.
func (k *SyrkKernel) Name() string { return "SYRK" }

// Rows implements Kernel.
func (k *SyrkKernel) Rows() int { return k.n }

// RunRows implements Kernel.
func (k *SyrkKernel) RunRows(lo, hi int) {
	for i := lo; i < hi; i++ {
		for j := 0; j < k.n; j++ {
			s := 0.0
			for p := 0; p < k.n; p++ {
				s += k.a[i][p] * k.a[j][p]
			}
			k.c[i][j] = k.alpha*s + k.beta*k.c[i][j]
		}
	}
}

// Checksum implements Kernel.
func (k *SyrkKernel) Checksum() float64 { return checksumMatrix(k.c) }

// --- SYR2K: C = alpha·(A·Bᵀ + B·Aᵀ) + beta·C -------------------------------

// Syr2kKernel is the Polybench SYR2K kernel.
type Syr2kKernel struct {
	n           int
	alpha, beta float64
	a, b, c     [][]float64
}

// NewSyr2kKernel builds an n×n SYR2K instance.
func NewSyr2kKernel(n int) *Syr2kKernel {
	return &Syr2kKernel{
		n: n, alpha: 0.8, beta: 1.3,
		a: fillMatrix(n, n, 11), b: fillMatrix(n, n, 12), c: fillMatrix(n, n, 13),
	}
}

// Name implements Kernel.
func (k *Syr2kKernel) Name() string { return "SYR2K" }

// Rows implements Kernel.
func (k *Syr2kKernel) Rows() int { return k.n }

// RunRows implements Kernel.
func (k *Syr2kKernel) RunRows(lo, hi int) {
	for i := lo; i < hi; i++ {
		for j := 0; j < k.n; j++ {
			s := 0.0
			for p := 0; p < k.n; p++ {
				s += k.a[i][p]*k.b[j][p] + k.b[i][p]*k.a[j][p]
			}
			k.c[i][j] = k.alpha*s + k.beta*k.c[i][j]
		}
	}
}

// Checksum implements Kernel.
func (k *Syr2kKernel) Checksum() float64 { return checksumMatrix(k.c) }

// --- 2D convolution ---------------------------------------------------------

// Conv2DKernel is the Polybench 2DCONV kernel: a 3×3 stencil.
type Conv2DKernel struct {
	n       int
	in, out [][]float64
}

// NewConv2DKernel builds an n×n 2D convolution instance.
func NewConv2DKernel(n int) *Conv2DKernel {
	return &Conv2DKernel{n: n, in: fillMatrix(n, n, 14), out: makeZero(n, n)}
}

// Name implements Kernel.
func (k *Conv2DKernel) Name() string { return "2DCONV" }

// Rows implements Kernel.
func (k *Conv2DKernel) Rows() int { return k.n }

// RunRows implements Kernel.
func (k *Conv2DKernel) RunRows(lo, hi int) {
	// Stencil coefficients from the Polybench reference.
	const (
		c11, c12, c13 = 0.2, -0.3, 0.4
		c21, c22, c23 = -0.5, 0.6, -0.7
		c31, c32, c33 = 0.8, -0.9, 0.1
	)
	for i := lo; i < hi; i++ {
		if i == 0 || i == k.n-1 {
			continue
		}
		for j := 1; j < k.n-1; j++ {
			k.out[i][j] = c11*k.in[i-1][j-1] + c12*k.in[i-1][j] + c13*k.in[i-1][j+1] +
				c21*k.in[i][j-1] + c22*k.in[i][j] + c23*k.in[i][j+1] +
				c31*k.in[i+1][j-1] + c32*k.in[i+1][j] + c33*k.in[i+1][j+1]
		}
	}
}

// Checksum implements Kernel.
func (k *Conv2DKernel) Checksum() float64 { return checksumMatrix(k.out) }

// --- COVARIANCE -------------------------------------------------------------

// CovarianceKernel is the Polybench COVARIANCE kernel. The column means are
// precomputed at construction (a cheap O(n²) setup), leaving the O(n³)
// symmetric matrix rows independent and partitionable.
type CovarianceKernel struct {
	n    int
	data [][]float64 // mean-centred at construction
	cov  [][]float64
}

// NewCovarianceKernel builds an n×n COVARIANCE instance.
func NewCovarianceKernel(n int) *CovarianceKernel {
	k := &CovarianceKernel{n: n, data: fillMatrix(n, n, 15), cov: makeZero(n, n)}
	for j := 0; j < n; j++ {
		mean := 0.0
		for i := 0; i < n; i++ {
			mean += k.data[i][j]
		}
		mean /= float64(n)
		for i := 0; i < n; i++ {
			k.data[i][j] -= mean
		}
	}
	return k
}

// Name implements Kernel.
func (k *CovarianceKernel) Name() string { return "COVARIANCE" }

// Rows implements Kernel.
func (k *CovarianceKernel) Rows() int { return k.n }

// RunRows implements Kernel.
func (k *CovarianceKernel) RunRows(lo, hi int) {
	for j1 := lo; j1 < hi; j1++ {
		for j2 := 0; j2 < k.n; j2++ {
			s := 0.0
			for i := 0; i < k.n; i++ {
				s += k.data[i][j1] * k.data[i][j2]
			}
			k.cov[j1][j2] = s / float64(k.n-1)
		}
	}
}

// Checksum implements Kernel.
func (k *CovarianceKernel) Checksum() float64 { return checksumMatrix(k.cov) }

// --- CORRELATION ------------------------------------------------------------

// CorrelationKernel is the Polybench CORRELATION kernel; like COVARIANCE
// the normalisation is precomputed so rows partition cleanly.
type CorrelationKernel struct {
	n    int
	data [][]float64 // standardised at construction
	corr [][]float64
}

// NewCorrelationKernel builds an n×n CORRELATION instance.
func NewCorrelationKernel(n int) *CorrelationKernel {
	k := &CorrelationKernel{n: n, data: fillMatrix(n, n, 16), corr: makeZero(n, n)}
	for j := 0; j < n; j++ {
		mean, ss := 0.0, 0.0
		for i := 0; i < n; i++ {
			mean += k.data[i][j]
		}
		mean /= float64(n)
		for i := 0; i < n; i++ {
			d := k.data[i][j] - mean
			ss += d * d
		}
		std := ss
		if std == 0 {
			std = 1
		}
		for i := 0; i < n; i++ {
			k.data[i][j] = (k.data[i][j] - mean) / sqrtOr1(std)
		}
	}
	return k
}

func sqrtOr1(x float64) float64 {
	if x <= 0 {
		return 1
	}
	return math.Sqrt(x)
}

// Name implements Kernel.
func (k *CorrelationKernel) Name() string { return "CORRELATION" }

// Rows implements Kernel.
func (k *CorrelationKernel) Rows() int { return k.n }

// RunRows implements Kernel.
func (k *CorrelationKernel) RunRows(lo, hi int) {
	for j1 := lo; j1 < hi; j1++ {
		for j2 := 0; j2 < k.n; j2++ {
			s := 0.0
			for i := 0; i < k.n; i++ {
				s += k.data[i][j1] * k.data[i][j2]
			}
			k.corr[j1][j2] = s
		}
	}
}

// Checksum implements Kernel.
func (k *CorrelationKernel) Checksum() float64 { return checksumMatrix(k.corr) }

// NewKernel builds the real kernel matching an App (by Polybench name)
// with problem size n.
func NewKernel(appName string, n int) (Kernel, error) {
	if n < 3 {
		return nil, errors.New("workload: kernel size must be at least 3")
	}
	switch appName {
	case "GEMM":
		return NewGemmKernel(n), nil
	case "2MM":
		return NewTwoMMKernel(n), nil
	case "MVT":
		return NewMvtKernel(n), nil
	case "SYRK":
		return NewSyrkKernel(n), nil
	case "SYR2K":
		return NewSyr2kKernel(n), nil
	case "2DCONV":
		return NewConv2DKernel(n), nil
	case "COVARIANCE":
		return NewCovarianceKernel(n), nil
	case "CORRELATION":
		return NewCorrelationKernel(n), nil
	default:
		return nil, fmt.Errorf("workload: no kernel for app %q", appName)
	}
}

// Phased is implemented by kernels whose row space splits into ordered
// phases (e.g. 2MM). Rows within one phase are independent.
type Phased interface {
	// Phases returns ascending end-row boundaries; the last equals
	// Rows().
	Phases() []int
}

// RunPartitioned executes a kernel with the first cpuRows of each phase on
// nCPU concurrent workers (the "CPU") and the remainder on one throughput
// worker (the "GPU"), mimicking the paper's OpenCL work-item partitioning.
// cpuFrac in [0,1] is the CPU share of each phase.
func RunPartitioned(k Kernel, cpuFrac float64, nCPU int) error {
	if cpuFrac < 0 || cpuFrac > 1 {
		return fmt.Errorf("workload: cpuFrac %g outside [0,1]", cpuFrac)
	}
	if nCPU < 1 {
		return errors.New("workload: need at least one CPU worker")
	}
	bounds := []int{k.Rows()}
	if p, ok := k.(Phased); ok {
		bounds = p.Phases()
	}
	lo := 0
	for _, hi := range bounds {
		runPhase(k, lo, hi, cpuFrac, nCPU)
		lo = hi
	}
	return nil
}

func runPhase(k Kernel, lo, hi int, cpuFrac float64, nCPU int) {
	n := hi - lo
	split := lo + int(cpuFrac*float64(n)+0.5)
	var wg sync.WaitGroup
	// CPU share: strided across nCPU workers.
	chunk := (split - lo + nCPU - 1) / nCPU
	for w := 0; w < nCPU && chunk > 0; w++ {
		a := lo + w*chunk
		b := a + chunk
		if b > split {
			b = split
		}
		if a >= b {
			break
		}
		wg.Add(1)
		go func(a, b int) {
			defer wg.Done()
			k.RunRows(a, b)
		}(a, b)
	}
	// GPU share: one throughput worker.
	if split < hi {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k.RunRows(split, hi)
		}()
	}
	wg.Wait()
}

// Package thermal models on-die temperature with a lumped RC network: one
// node per heat source (CPU clusters, GPU, SoC package) connected by
// thermal resistances, with the ambient as a fixed-temperature boundary.
//
// Two integrators are available. Model.Step is explicit Euler with
// automatic substepping (stable for any step because substeps are chosen
// well below the smallest node time constant) and serves as the reference
// integrator and the path for non-uniform steps. Stepper precomputes the
// exact discrete-time propagator for a fixed step — the lumped system is
// linear time-invariant within a control interval, so one matrix-vector
// product per tick replaces the substep loop with zero error and zero heap
// allocations. A direct linear steady-state solver cross-checks both and
// powers calibration tests. A sensor reads its node's temperature
// exactly, like one Exynos TMU probe per node, with no quantisation.
//
// Superstep extends the exact propagator to whole intervals: when the
// injected power is affine in temperature (a constant operating point
// with its leakage slope folded into the map), n ticks collapse to the
// closed form T[k+n] = Ãⁿ·T[k] + Sₙ·b̃, evaluated in O(N²) through Ã's
// modal form (one symmetric eigensolve per slope vector, shared across
// engines). Because Ã is entrywise non-negative, the first tick's
// direction holds for the whole jump, so callers check interior
// constraints from the endpoints alone. See docs/integrators.md.
package thermal

import (
	"errors"
	"fmt"
	"math"
)

// Node is one lumped thermal mass.
type Node struct {
	// Name identifies the node, e.g. "A15", "MaliT628", "pkg".
	Name string
	// HeatCapJ is the heat capacity in joules per °C.
	HeatCapJ float64
}

// Link is a thermal resistance between two nodes, or between a node and the
// ambient boundary when B < 0.
type Link struct {
	// A and B index Network.Nodes; B == Ambient (-1) couples A to the
	// fixed ambient temperature.
	A, B int
	// ResCW is the thermal resistance in °C per watt.
	ResCW float64
}

// Ambient is the pseudo-index of the fixed-temperature ambient boundary.
const Ambient = -1

// Network describes the RC topology.
type Network struct {
	Nodes []Node
	Links []Link
}

// Validate reports an error on malformed topologies.
func (n *Network) Validate() error {
	if len(n.Nodes) == 0 {
		return errors.New("thermal: network has no nodes")
	}
	seen := make(map[string]bool, len(n.Nodes))
	for i, nd := range n.Nodes {
		if nd.Name == "" {
			return fmt.Errorf("thermal: node %d has empty name", i)
		}
		if seen[nd.Name] {
			return fmt.Errorf("thermal: duplicate node name %q", nd.Name)
		}
		seen[nd.Name] = true
		if !(nd.HeatCapJ > 0) || math.IsInf(nd.HeatCapJ, 1) {
			return fmt.Errorf("thermal: node %q has non-positive or non-finite heat capacity %g", nd.Name, nd.HeatCapJ)
		}
	}
	grounded := false
	for i, l := range n.Links {
		if l.A < 0 || l.A >= len(n.Nodes) {
			return fmt.Errorf("thermal: link %d endpoint A out of range", i)
		}
		if l.B != Ambient && (l.B < 0 || l.B >= len(n.Nodes)) {
			return fmt.Errorf("thermal: link %d endpoint B out of range", i)
		}
		if l.A == l.B {
			return fmt.Errorf("thermal: link %d is a self loop", i)
		}
		if !(l.ResCW > 0) || math.IsInf(l.ResCW, 1) {
			return fmt.Errorf("thermal: link %d has non-positive or non-finite resistance %g", i, l.ResCW)
		}
		if l.B == Ambient {
			grounded = true
		}
	}
	if !grounded {
		return errors.New("thermal: no link to ambient; temperatures would diverge")
	}
	return nil
}

// NodeIndex returns the index of the named node, or -1.
func (n *Network) NodeIndex(name string) int {
	for i := range n.Nodes {
		if n.Nodes[i].Name == name {
			return i
		}
	}
	return -1
}

// Model integrates node temperatures over time.
type Model struct {
	net      *Network
	ambientC float64
	temps    []float64
	n        int
	// Conductance matrix, flat row-major: g[i*n+j] = 1/R between i and
	// j; gAmb[i] to ambient. Precomputed from links.
	g    []float64
	gAmb []float64
	// invC[i] = 1 / Nodes[i].HeatCapJ.
	invC []float64
	// CSR-style neighbour list over the non-zero off-diagonal
	// conductances, for the sparse Euler inner loop.
	nbrStart []int32
	nbrIdx   []int32
	nbrG     []float64
	// maxSubstep is the largest stable Euler step (s).
	maxSubstep float64
	// scratch holds the next-state vector during a substep.
	scratch []float64
}

// NewModel builds a model with every node starting at ambient temperature.
func NewModel(net *Network, ambientC float64) (*Model, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	n := len(net.Nodes)
	m := &Model{
		net:      net,
		ambientC: ambientC,
		temps:    make([]float64, n),
		n:        n,
		g:        make([]float64, n*n),
		gAmb:     make([]float64, n),
		invC:     make([]float64, n),
		scratch:  make([]float64, n),
	}
	for _, l := range net.Links {
		c := 1 / l.ResCW
		if l.B == Ambient {
			m.gAmb[l.A] += c
		} else {
			m.g[l.A*n+l.B] += c
			m.g[l.B*n+l.A] += c
		}
	}
	m.nbrStart = make([]int32, n+1)
	for i := 0; i < n; i++ {
		m.nbrStart[i] = int32(len(m.nbrIdx))
		for j := 0; j < n; j++ {
			if g := m.g[i*n+j]; g != 0 {
				m.nbrIdx = append(m.nbrIdx, int32(j))
				m.nbrG = append(m.nbrG, g)
			}
		}
	}
	m.nbrStart[n] = int32(len(m.nbrIdx))
	// Stability: explicit Euler needs dt < C_i / Σg_i for every node;
	// use a 5x margin.
	minTau := math.Inf(1)
	for i := range net.Nodes {
		sum := m.gAmb[i]
		for j := 0; j < n; j++ {
			sum += m.g[i*n+j]
		}
		if sum > 0 {
			if tau := net.Nodes[i].HeatCapJ / sum; tau < minTau {
				minTau = tau
			}
		}
		m.invC[i] = 1 / net.Nodes[i].HeatCapJ
	}
	m.maxSubstep = minTau / 5
	for i := range m.temps {
		m.temps[i] = ambientC
	}
	return m, nil
}

// SetAmbientC changes the boundary temperature (e.g. to model the device
// moving into sunlight); node temperatures are unaffected until stepped.
func (m *Model) SetAmbientC(t float64) { m.ambientC = t }

// Temps returns a copy of the current node temperatures in °C.
func (m *Model) Temps() []float64 { return append([]float64(nil), m.temps...) }

// CopyTemps copies the current node temperatures into dst without
// allocating and returns the number of values copied.
func (m *Model) CopyTemps(dst []float64) int { return copy(dst, m.temps) }

// Temp returns the temperature of node i.
func (m *Model) Temp(i int) float64 { return m.temps[i] }

// SetTemps overwrites the state (e.g. to start a scenario pre-heated).
func (m *Model) SetTemps(t []float64) error {
	if len(t) != len(m.temps) {
		return fmt.Errorf("thermal: SetTemps got %d values, want %d", len(t), len(m.temps))
	}
	copy(m.temps, t)
	return nil
}

// Step advances the model by dt seconds with the given per-node power
// injection in watts, using substepped explicit Euler. It performs no heap
// allocations. For a fixed dt the exact Stepper is both faster and more
// accurate; Step remains the reference integrator and handles non-uniform
// steps.
//
//teem:hotpath
func (m *Model) Step(powerW []float64, dt float64) error {
	if len(powerW) != len(m.temps) {
		return fmt.Errorf("thermal: Step got %d powers, want %d", len(powerW), len(m.temps))
	}
	if dt < 0 {
		return errors.New("thermal: negative time step")
	}
	remaining := dt
	for remaining > 1e-12 {
		h := m.maxSubstep
		if h > remaining {
			h = remaining
		}
		m.eulerStep(powerW, h)
		remaining -= h
	}
	return nil
}

//teem:hotpath
func (m *Model) eulerStep(powerW []float64, h float64) {
	for i := 0; i < m.n; i++ {
		ti := m.temps[i]
		q := powerW[i] + m.gAmb[i]*(m.ambientC-ti)
		for k := m.nbrStart[i]; k < m.nbrStart[i+1]; k++ {
			q += m.nbrG[k] * (m.temps[m.nbrIdx[k]] - ti)
		}
		m.scratch[i] = ti + h*q*m.invC[i]
	}
	copy(m.temps, m.scratch)
}

// laplacian writes the conductance Laplacian (off-diagonal −g[i][j],
// diagonal gAmb[i]+Σ_j g[i][j]) into dst, a flat row-major n×n slice.
func (m *Model) laplacian(dst []float64) {
	n := m.n
	for i := 0; i < n; i++ {
		diag := m.gAmb[i]
		for j := 0; j < n; j++ {
			if i != j {
				dst[i*n+j] = -m.g[i*n+j]
				diag += m.g[i*n+j]
			}
		}
		dst[i*n+i] = diag
	}
}

// SteadyState solves the equilibrium temperatures for constant power
// injection without touching the model state.
func (m *Model) SteadyState(powerW []float64) ([]float64, error) {
	n := m.n
	if len(powerW) != n {
		return nil, fmt.Errorf("thermal: SteadyState got %d powers, want %d", len(powerW), n)
	}
	// G · T = P + gAmb·Tamb, where G is the conductance Laplacian plus
	// ambient conductances on the diagonal.
	a := make([]float64, n*n)
	b := make([]float64, n)
	m.laplacian(a)
	for i := 0; i < n; i++ {
		b[i] = powerW[i] + m.gAmb[i]*m.ambientC
	}
	if err := solveLinear(a, b, n); err != nil {
		return nil, err
	}
	return b, nil
}

// solveLinear solves a·x = b in place by Gaussian elimination with partial
// pivoting; a is flat row-major n×n and b receives the solution. The
// singularity test is relative to the matrix magnitude (a pivot below
// 1e-12 × ‖A‖∞ counts as zero), so uniformly large conductance matrices
// don't false-pass and uniformly tiny ones don't false-fail.
func solveLinear(a, b []float64, n int) error {
	anorm := 0.0
	for i := 0; i < n; i++ {
		row := 0.0
		for j := 0; j < n; j++ {
			row += math.Abs(a[i*n+j])
		}
		if row > anorm {
			anorm = row
		}
	}
	if anorm == 0 {
		return errors.New("thermal: singular conductance matrix")
	}
	tol := 1e-12 * anorm
	for col := 0; col < n; col++ {
		// Pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r*n+col]) > math.Abs(a[piv*n+col]) {
				piv = r
			}
		}
		if math.Abs(a[piv*n+col]) < tol {
			return errors.New("thermal: singular conductance matrix")
		}
		if piv != col {
			for c := 0; c < n; c++ {
				a[col*n+c], a[piv*n+c] = a[piv*n+c], a[col*n+c]
			}
			b[col], b[piv] = b[piv], b[col]
		}
		// Eliminate.
		for r := col + 1; r < n; r++ {
			f := a[r*n+col] / a[col*n+col]
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r*n+c] -= f * a[col*n+c]
			}
			b[r] -= f * b[col]
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < n; j++ {
			s -= a[i*n+j] * b[j]
		}
		b[i] = s / a[i*n+i]
	}
	return nil
}

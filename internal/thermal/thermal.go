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
	"slices"
	"sync/atomic"
)

// Node is one lumped thermal mass. Its JSON tags are the schema of a
// node of the "thermal" object of a platform bundle file (see
// Network.MarshalJSON).
type Node struct {
	// Name identifies the node, e.g. "A15", "MaliT628", "pkg".
	Name string `json:"name"`
	// HeatCapJ is the heat capacity in joules per °C.
	HeatCapJ float64 `json:"heat_cap_j"`
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

// ambientName names the ambient boundary as a link endpoint in a
// network's JSON form (see Network.MarshalJSON), so no node may take
// it.
const ambientName = "ambient"

// Network describes the RC topology.
type Network struct {
	Nodes []Node
	Links []Link
}

// Clone returns a deep copy of n, whose node and link slices are its own.
func (n *Network) Clone() *Network {
	return &Network{Nodes: slices.Clone(n.Nodes), Links: slices.Clone(n.Links)}
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
		if nd.Name == ambientName {
			return fmt.Errorf("thermal: node %d is named %q, which names the ambient boundary", i, ambientName)
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

// System is the read-only form of one thermal network that the models
// over it share: the conductances and inverse heat capacities the
// integrators read, the neighbour lists of the Euler loop, the
// steady-state solver's recorded elimination and the exact propagator of
// one step. Compile derives it once per network; a Model over a System
// owns only its temperatures, ambient and scratch, so any number of
// models, on any goroutines, can run over one System.
type System struct {
	n int
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
	// lu is the elimination of the conductance Laplacian every steady
	// state replays, or luErr when the Laplacian is singular.
	lu    *elimination
	luErr error
	// prop is the propagator of the first step a Stepper asked for.
	// shared marks a System kept for the life of the process (see
	// Share): only its propagator shares modal forms.
	prop   atomic.Pointer[propagator]
	shared bool
}

// Compile validates the network and derives its System.
func Compile(net *Network) (*System, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	n := len(net.Nodes)
	// g, gAmb, invC and the matrix the steady-state solver eliminates.
	buf := make([]float64, 2*n*n+2*n)
	s := &System{n: n, g: buf[:n*n], gAmb: buf[n*n : n*n+n], invC: buf[n*n+n : n*n+2*n]}
	for _, l := range net.Links {
		c := 1 / l.ResCW
		if l.B == Ambient {
			s.gAmb[l.A] += c
		} else {
			s.g[l.A*n+l.B] += c
			s.g[l.B*n+l.A] += c
		}
	}
	s.nbrStart = make([]int32, n+1)
	for i := 0; i < n; i++ {
		s.nbrStart[i] = int32(len(s.nbrIdx))
		for j := 0; j < n; j++ {
			if g := s.g[i*n+j]; g != 0 {
				s.nbrIdx = append(s.nbrIdx, int32(j))
				s.nbrG = append(s.nbrG, g)
			}
		}
	}
	s.nbrStart[n] = int32(len(s.nbrIdx))
	// Stability: explicit Euler needs dt < C_i / Σg_i for every node;
	// use a 5x margin.
	minTau := math.Inf(1)
	for i := range net.Nodes {
		sum := s.gAmb[i]
		for j := 0; j < n; j++ {
			sum += s.g[i*n+j]
		}
		if sum > 0 {
			if tau := net.Nodes[i].HeatCapJ / sum; tau < minTau {
				minTau = tau
			}
		}
		s.invC[i] = 1 / net.Nodes[i].HeatCapJ
	}
	s.maxSubstep = minTau / 5
	// G · T = P + gAmb·Tamb, where G is the conductance Laplacian plus
	// ambient conductances on the diagonal.
	a := buf[n*n+2*n:]
	s.laplacian(a)
	s.lu, s.luErr = eliminate(a, n)
	return s, nil
}

// Share marks s as kept for the life of the process by a cache of
// systems. The propagator s keeps then shares its jump maps' modal forms
// with every model over s, within the process-wide bound formCacheLimit.
// Call it before s reaches another goroutine.
func (s *System) Share() { s.shared = true }

// NewModel returns a model over the system with every node at ambientC.
func (s *System) NewModel(ambientC float64) *Model {
	n := s.n
	buf := make([]float64, 2*n)
	m := &Model{sys: s, n: n, ambientC: ambientC, temps: buf[:n:n], scratch: buf[n:]}
	for i := range m.temps {
		m.temps[i] = ambientC
	}
	return m
}

// Model integrates node temperatures over time.
type Model struct {
	sys      *System
	n        int
	ambientC float64
	temps    []float64
	// scratch holds the next-state vector during a substep.
	scratch []float64
}

// NewModel builds a model with every node starting at ambient temperature.
func NewModel(net *Network, ambientC float64) (*Model, error) {
	s, err := Compile(net)
	if err != nil {
		return nil, err
	}
	return s.NewModel(ambientC), nil
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
		h := m.sys.maxSubstep
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
	s := m.sys
	for i := 0; i < m.n; i++ {
		ti := m.temps[i]
		q := powerW[i] + s.gAmb[i]*(m.ambientC-ti)
		for k := s.nbrStart[i]; k < s.nbrStart[i+1]; k++ {
			q += s.nbrG[k] * (m.temps[s.nbrIdx[k]] - ti)
		}
		m.scratch[i] = ti + h*q*s.invC[i]
	}
	copy(m.temps, m.scratch)
}

// laplacian writes the conductance Laplacian (off-diagonal −g[i][j],
// diagonal gAmb[i]+Σ_j g[i][j]) into dst, a flat row-major n×n slice.
func (s *System) laplacian(dst []float64) {
	n := s.n
	for i := 0; i < n; i++ {
		diag := s.gAmb[i]
		for j := 0; j < n; j++ {
			if i != j {
				dst[i*n+j] = -s.g[i*n+j]
				diag += s.g[i*n+j]
			}
		}
		dst[i*n+i] = diag
	}
}

// SteadyState solves the equilibrium temperatures for constant power
// injection without touching the model state.
func (m *Model) SteadyState(powerW []float64) ([]float64, error) {
	t := make([]float64, m.n)
	if err := m.SteadyStateInto(t, powerW); err != nil {
		return nil, err
	}
	return t, nil
}

// SteadyStateInto is SteadyState writing the temperatures into dst, which
// may be powerW itself. It replays the system's recorded elimination, so
// it allocates nothing, and it only reads the model, so any number of
// goroutines may call it on one model at once.
//
//teem:hotpath
func (m *Model) SteadyStateInto(dst, powerW []float64) error {
	s := m.sys
	if len(powerW) != s.n {
		return fmt.Errorf("thermal: SteadyState got %d powers, want %d", len(powerW), s.n)
	}
	if len(dst) != s.n {
		return fmt.Errorf("thermal: SteadyState got %d temperatures to fill, want %d", len(dst), s.n)
	}
	if s.luErr != nil {
		return s.luErr
	}
	for i := range dst {
		dst[i] = powerW[i] + s.gAmb[i]*m.ambientC
	}
	s.lu.solve(dst)
	return nil
}

// elimination is Gaussian elimination with partial pivoting of one n×n
// matrix, recorded so that every right-hand side replays it: step col
// swapped row piv[col] into row col and eliminated each row r below it
// with the factor mult[r*n+col] (0: the row was skipped), leaving the
// upper triangle u (flat row-major n×n) that back-substitution reads.
type elimination struct {
	n       int
	piv     []int
	mult, u []float64
}

// eliminate eliminates a (flat row-major n×n, overwritten) and records
// the steps. The singularity test is relative to the matrix magnitude (a
// pivot below 1e-12 × ‖A‖∞ counts as zero), so uniformly large
// conductance matrices don't false-pass and uniformly tiny ones don't
// false-fail.
func eliminate(a []float64, n int) (*elimination, error) {
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
		return nil, errors.New("thermal: singular conductance matrix")
	}
	tol := 1e-12 * anorm
	e := &elimination{n: n, piv: make([]int, n), mult: make([]float64, n*n), u: a}
	for col := 0; col < n; col++ {
		// Pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r*n+col]) > math.Abs(a[piv*n+col]) {
				piv = r
			}
		}
		if math.Abs(a[piv*n+col]) < tol {
			return nil, errors.New("thermal: singular conductance matrix")
		}
		e.piv[col] = piv
		if piv != col {
			for c := 0; c < n; c++ {
				a[col*n+c], a[piv*n+c] = a[piv*n+c], a[col*n+c]
			}
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
			e.mult[r*n+col] = f
		}
	}
	return e, nil
}

// solve overwrites b with the solution of a·x = b for the matrix a that
// e eliminated: the row swaps and eliminations in the order eliminate
// made them, then back-substitution. Each operation on b is the one a
// single elimination of a and b together performs, in the same order, so
// the solution is bit-identical to it.
//
//teem:hotpath
func (e *elimination) solve(b []float64) {
	n, a := e.n, e.u
	for col := 0; col < n; col++ {
		if piv := e.piv[col]; piv != col {
			b[col], b[piv] = b[piv], b[col]
		}
		for r := col + 1; r < n; r++ {
			f := e.mult[r*n+col]
			if f == 0 {
				continue
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
}

// Package power models the electrical power consumption of an MPSoC as a
// board-level meter would observe it: per-cluster dynamic switching power,
// temperature-dependent static leakage, DRAM traffic power, and a constant
// board baseline (regulators, peripherals).
//
// The model is the standard CMOS decomposition
//
//	P_dyn  = n_active · Cdyn · V² · f · activity
//	P_leak = n_on · LeakCoeff · V² · (1 + LeakTempCoeff · (T − 25°C))
//
// with coefficients carried by the soc.Cluster description. Calibration for
// the Exynos 5422 puts the big cluster around 5.7 W fully loaded at
// 2000 MHz, the LITTLE cluster around 0.8 W at 1400 MHz and the Mali GPU
// around 2.5 W at 600 MHz, which reproduces the board-level envelope the
// paper measures with the Odroid Smart Power 2 (≈11 W peak, ≈2.5 W idle).
package power

import (
	"fmt"
	"sync"

	"teem/internal/soc"
)

// ClusterLoad describes the instantaneous operating condition of one
// cluster for a power evaluation.
type ClusterLoad struct {
	// FreqMHz is the current cluster frequency.
	FreqMHz int
	// VoltV is the rail voltage. If zero it is derived from the
	// cluster's OPP table.
	VoltV float64
	// ActiveCores is the number of cores currently executing work.
	ActiveCores int
	// OnCores is the number of powered (not hot-plugged-off) cores;
	// they leak even when idle. Must be ≥ ActiveCores.
	OnCores int
	// Utilization in [0,1] scales dynamic power of the active cores
	// (duty cycle within the evaluation window).
	Utilization float64
	// Activity in (0,1] is the workload-dependent switching-activity
	// factor relative to a power-virus workload; ~0.7 for typical
	// compute kernels.
	Activity float64
	// TempC is the cluster junction temperature for leakage evaluation.
	TempC float64
}

// Breakdown itemises a power evaluation in watts.
type Breakdown struct {
	// DynamicW per cluster, indexed like Platform.Clusters.
	DynamicW []float64
	// LeakageW per cluster.
	LeakageW []float64
	// DRAMW is memory-traffic power.
	DRAMW float64
	// BaselineW is the constant board power.
	BaselineW float64
}

// TotalW returns the summed board power.
func (b *Breakdown) TotalW() float64 {
	t := b.DRAMW + b.BaselineW
	for i := range b.DynamicW {
		t += b.DynamicW[i] + b.LeakageW[i]
	}
	return t
}

// ClusterW returns dynamic+leakage power of cluster i.
func (b *Breakdown) ClusterW(i int) float64 { return b.DynamicW[i] + b.LeakageW[i] }

// Model evaluates platform power.
type Model struct {
	plat *soc.Platform
	// volt memoises the per-cluster OPP voltage lookup (frequency in
	// MHz → rail voltage). It is built lazily on the first derived
	// lookup (callers that always pass ClusterLoad.VoltV never pay for
	// it) and read-only after, so a Model is safe for concurrent use.
	voltOnce sync.Once
	volt     []map[int]float64
}

// NewModel returns a power model for the platform.
func NewModel(p *soc.Platform) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Model{plat: p}, nil
}

// voltageFor returns the rail voltage for cluster i at the given
// frequency, memoising the per-OPP table on first use.
func (m *Model) voltageFor(i, freqMHz int) float64 {
	m.voltOnce.Do(func() {
		volt := make([]map[int]float64, len(m.plat.Clusters))
		for ci := range m.plat.Clusters {
			c := &m.plat.Clusters[ci]
			volt[ci] = make(map[int]float64, c.NumOPPs())
			for _, opp := range c.OPPs {
				volt[ci][opp.FreqMHz] = opp.VoltV
			}
		}
		m.volt = volt
	})
	if v, ok := m.volt[i][freqMHz]; ok {
		return v
	}
	// Off-OPP frequency: fall back to the table scan, snapping up like
	// the regulator would.
	return m.plat.Clusters[i].VoltageAt(freqMHz)
}

// Platform returns the platform this model evaluates.
func (m *Model) Platform() *soc.Platform { return m.plat }

// ClusterPower returns (dynamic, leakage) watts of cluster i under load l.
//
//teem:hotpath
func (m *Model) ClusterPower(i int, l ClusterLoad) (dynW, leakW float64, err error) {
	if i < 0 || i >= len(m.plat.Clusters) {
		return 0, 0, fmt.Errorf("power: cluster index %d out of range", i)
	}
	c := &m.plat.Clusters[i]
	if l.ActiveCores < 0 || l.OnCores < l.ActiveCores || l.OnCores > c.NumCores {
		return 0, 0, fmt.Errorf("power: cluster %s: invalid core counts active=%d on=%d (max %d)",
			c.Name, l.ActiveCores, l.OnCores, c.NumCores)
	}
	if l.Utilization < 0 || l.Utilization > 1 {
		return 0, 0, fmt.Errorf("power: cluster %s: utilization %g outside [0,1]", c.Name, l.Utilization)
	}
	act := l.Activity
	if act == 0 {
		act = 1
	}
	if act < 0 || act > 1 {
		return 0, 0, fmt.Errorf("power: cluster %s: activity %g outside (0,1]", c.Name, act)
	}
	v := l.VoltV
	if v == 0 {
		v = m.voltageFor(i, l.FreqMHz)
	}
	fHz := float64(l.FreqMHz) * 1e6
	// CdynCoreNF is in nF = 1e-9 F.
	dynW = float64(l.ActiveCores) * c.CdynCoreNF * 1e-9 * v * v * fHz * l.Utilization * act
	leakW = Leakage(float64(l.OnCores)*c.LeakCoeff*v*v, c.LeakTempCoeff, l.TempC)
	return dynW, leakW, nil
}

// Leakage is ClusterPower's temperature term: a cluster whose leakage
// base OnCores·LeakCoeff·V² is baseW leaks baseW·(1 + tempCoeff·(T − 25))
// at junction temperature tempC, clamped to baseW below the 25 °C
// reference. At exactly 25 °C the factor is exactly 1, so ClusterPower
// evaluated at TempC = 25 returns the base itself as its leakage; a
// caller holding the operating point fixed (the simulator's steady walk)
// takes the base from there once and re-applies only this factor per
// temperature, bit-identically to ClusterPower.
//
//teem:hotpath
func Leakage(baseW, tempCoeff, tempC float64) float64 {
	dT := tempC - 25
	if dT < 0 {
		dT = 0
	}
	return baseW * (1 + tempCoeff*dT)
}

// ClusterPowerAffine decomposes cluster i's power under load l into its
// temperature-affine form: for junction temperatures at or above the
// 25 °C leakage reference,
//
//	P(T) = dynW + leakConstW + leakSlopeWPerC·T,
//
// with leakConstW = base·(1 − 25·LeakTempCoeff) and leakSlopeWPerC =
// base·LeakTempCoeff where base = OnCores·LeakCoeff·V². The decomposition
// reconstructs ClusterPower exactly for T ≥ 25 °C; below the reference
// the true leakage is the constant base (the temperature term clamps to
// zero) and the affine form overestimates, so callers — the simulator's
// superstep planner — must hold trajectories to the T ≥ 25 °C regime or
// fall back to per-tick evaluation. l.TempC is ignored: the base is
// ClusterPower's leakage at the 25 °C reference, where Leakage returns it
// exactly.
func (m *Model) ClusterPowerAffine(i int, l ClusterLoad) (dynW, leakConstW, leakSlopeWPerC float64, err error) {
	l.TempC = 25
	dynW, base, err := m.ClusterPower(i, l)
	if err != nil {
		return 0, 0, 0, err
	}
	leakSlopeWPerC = base * m.plat.Clusters[i].LeakTempCoeff
	return dynW, base - 25*leakSlopeWPerC, leakSlopeWPerC, nil
}

// Evaluate computes the full board power breakdown. loads must have one
// entry per platform cluster; memGBs is the aggregate DRAM traffic in GB/s.
func (m *Model) Evaluate(loads []ClusterLoad, memGBs float64) (*Breakdown, error) {
	b := &Breakdown{}
	if err := m.EvaluateInto(b, loads, memGBs); err != nil {
		return nil, err
	}
	return b, nil
}

// EvaluateInto computes the full board power breakdown into the
// caller-owned b, reusing its slices when they have capacity — the
// zero-allocation path of the per-tick co-simulation loop. On error b is
// left unspecified.
//
//teem:hotpath
func (m *Model) EvaluateInto(b *Breakdown, loads []ClusterLoad, memGBs float64) error {
	if len(loads) != len(m.plat.Clusters) {
		return fmt.Errorf("power: got %d loads for %d clusters", len(loads), len(m.plat.Clusters))
	}
	if memGBs < 0 {
		return fmt.Errorf("power: negative memory traffic %g", memGBs)
	}
	b.DynamicW = growFloats(b.DynamicW, len(loads))
	b.LeakageW = growFloats(b.LeakageW, len(loads))
	b.DRAMW = memGBs * m.plat.DRAMPowerPerGBs
	b.BaselineW = m.plat.BoardBaselineW
	for i, l := range loads {
		d, lk, err := m.ClusterPower(i, l)
		if err != nil {
			return err
		}
		b.DynamicW[i] = d
		b.LeakageW[i] = lk
	}
	return nil
}

// growFloats returns s resized to n, reusing its backing array when large
// enough.
//
//teem:hotpath
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// IdleLoads returns a load vector describing a fully idle platform (all
// cores powered but idle at minimum frequency, at the given temperature).
func IdleLoads(p *soc.Platform, tempC float64) []ClusterLoad {
	loads := make([]ClusterLoad, len(p.Clusters))
	for i := range p.Clusters {
		c := &p.Clusters[i]
		loads[i] = ClusterLoad{
			FreqMHz:     c.MinFreqMHz(),
			ActiveCores: 0,
			OnCores:     c.NumCores,
			Utilization: 0,
			Activity:    1,
			TempC:       tempC,
		}
	}
	return loads
}

package platform

import (
	"fmt"
	"math"

	"teem/internal/power"
	"teem/internal/sim"
	"teem/internal/soc"
	"teem/internal/thermal"
)

// Verification thresholds. They are deliberately loose — the suite
// catches entries that are physically broken or would wedge the
// simulator, not entries that are merely unusual.
const (
	// maxFreqSaneMHz bounds cluster clocks (no 2026 part clocks past 6 GHz).
	maxFreqSaneMHz = 6000
	// maxVoltSaneV bounds rail voltages.
	maxVoltSaneV = 1.6
	// maxClusterSaneW bounds a single cluster's full-load power.
	maxClusterSaneW = 120
	// maxBoardSaneW bounds the whole-board full-load envelope.
	maxBoardSaneW = 400
	// steadyTolC is the tolerance for the zero-power equilibrium check.
	steadyTolC = 1e-6
)

// Verify runs the catalog-wide validation suite over one bundle and
// returns its findings (empty = the platform is known-good). The suite
// layers semantic physics checks on top of Bundle.Validate:
//
//   - OPP tables: at least two points per cluster, strictly increasing
//     frequency with non-decreasing voltage, sane clock/voltage ranges.
//   - Trip points: release sits above ambient (hysteresis can close);
//     Validate already holds the hardware cap to a big-cluster frequency.
//   - Sensor resolution: every cluster and accelerator-slot node name
//     resolves in the bundled network (clusters via Validate; slots here).
//   - Network: every node is connected to ambient (an isolated island
//     would integrate heat without bound), and the zero-power steady
//     state relaxes to ambient exactly — the stability certificate for
//     the RC system.
//   - Power model: cluster power is positive at the minimum OPP, grows
//     to the maximum OPP, and the min/max full-load board envelope is
//     physically plausible.
//   - Trip viability: the self-consistent steady state under the
//     hardware-throttled load sits below TripReleaseC, so a tripped
//     part always cools enough to release (no permanent-throttle wedge),
//     and the full-load steady state is finite.
func Verify(b *Bundle) []string {
	if err := b.Validate(); err != nil {
		return []string{err.Error()}
	}
	var findings []string
	addf := func(format string, args ...any) {
		findings = append(findings, fmt.Sprintf(format, args...))
	}

	// --- OPP tables ---------------------------------------------------
	for i := range b.SoC.Clusters {
		c := &b.SoC.Clusters[i]
		if c.NumOPPs() < 2 {
			addf("cluster %s: only %d OPP; governors need at least two points to actuate", c.Name, c.NumOPPs())
		}
		for j := 1; j < c.NumOPPs(); j++ {
			if c.OPPs[j].FreqMHz <= c.OPPs[j-1].FreqMHz {
				addf("cluster %s: OPP %d frequency not strictly increasing", c.Name, j)
			}
			if c.OPPs[j].VoltV < c.OPPs[j-1].VoltV {
				addf("cluster %s: OPP %d voltage decreases with frequency", c.Name, j)
			}
		}
		if c.MaxFreqMHz() > maxFreqSaneMHz {
			addf("cluster %s: max frequency %d MHz exceeds the %d MHz sanity bound", c.Name, c.MaxFreqMHz(), maxFreqSaneMHz)
		}
		if v := c.OPPs[c.NumOPPs()-1].VoltV; v > maxVoltSaneV {
			addf("cluster %s: max voltage %.3f V exceeds the %.1f V sanity bound", c.Name, v, maxVoltSaneV)
		}
	}

	// --- trip points --------------------------------------------------
	// (Validate holds the hardware cap inside the big cluster's range.)
	big := b.SoC.Big()
	if b.SoC.TripReleaseC <= b.SoC.AmbientC {
		addf("trip release %.1f °C at or below ambient %.1f °C — hardware protection could never engage meaningfully",
			b.SoC.TripReleaseC, b.SoC.AmbientC)
	}
	if b.SoC.AmbientC < 0 || b.SoC.AmbientC > 60 {
		addf("ambient %.1f °C outside the plausible 0–60 °C range", b.SoC.AmbientC)
	}

	// --- accelerator-slot sensor resolution ---------------------------
	// A slot that owns a thermal node must own exactly the same name;
	// slots without a node are pure metadata and fine.
	for i := range b.Accelerators {
		a := &b.Accelerators[i]
		if a.PeakW > 0 && b.Net.NodeIndex(a.Name) < 0 {
			addf("accelerator %s draws %.1f W but has no thermal node to heat", a.Name, a.PeakW)
		}
	}

	// --- network connectivity -----------------------------------------
	n := len(b.Net.Nodes)
	reach := make([]bool, n)
	var frontier []int
	for _, l := range b.Net.Links {
		if l.B == thermal.Ambient && !reach[l.A] {
			reach[l.A] = true
			frontier = append(frontier, l.A)
		}
	}
	for len(frontier) > 0 {
		cur := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, l := range b.Net.Links {
			if l.B == thermal.Ambient {
				continue
			}
			next := -1
			if l.A == cur && !reach[l.B] {
				next = l.B
			} else if l.B == cur && !reach[l.A] {
				next = l.A
			}
			if next >= 0 {
				reach[next] = true
				frontier = append(frontier, next)
			}
		}
	}
	for i := range reach {
		if !reach[i] {
			addf("node %s has no conductive path to ambient — its temperature would grow without bound",
				b.Net.Nodes[i].Name)
		}
	}
	if len(findings) > 0 {
		// The physics checks below assume a well-formed system.
		return findings
	}

	// --- stability: zero power relaxes to ambient ---------------------
	tm, err := thermal.NewModel(b.Net, b.SoC.AmbientC)
	if err != nil {
		addf("thermal model: %v", err)
		return findings
	}
	zero := make([]float64, n)
	st, err := tm.SteadyState(zero)
	if err != nil {
		addf("zero-power steady state: %v", err)
		return findings
	}
	for i, t := range st {
		if math.Abs(t-b.SoC.AmbientC) > steadyTolC {
			addf("node %s: zero-power steady state %.4f °C drifts from ambient %.1f °C",
				b.Net.Nodes[i].Name, t, b.SoC.AmbientC)
		}
	}

	// --- power-model sanity at the OPP extremes -----------------------
	pm, err := power.NewModel(b.SoC)
	if err != nil {
		addf("power model: %v", err)
		return findings
	}
	var peakW float64
	for i := range b.SoC.Clusters {
		c := &b.SoC.Clusters[i]
		pmin, err := clusterFullLoadW(pm, i, c.MinFreqMHz(), b.SoC.AmbientC)
		if err != nil {
			addf("cluster %s: %v", c.Name, err)
			continue
		}
		pmax, err := clusterFullLoadW(pm, i, c.MaxFreqMHz(), b.SoC.AmbientC)
		if err != nil {
			addf("cluster %s: %v", c.Name, err)
			continue
		}
		if pmin <= 0 {
			addf("cluster %s: non-positive power %.3f W at the minimum OPP", c.Name, pmin)
		}
		if pmax <= pmin {
			addf("cluster %s: full-load power does not grow from min OPP (%.3f W) to max OPP (%.3f W)",
				c.Name, pmin, pmax)
		}
		if pmax > maxClusterSaneW {
			addf("cluster %s: full-load power %.1f W exceeds the %d W sanity bound", c.Name, pmax, maxClusterSaneW)
		}
		peakW += pmax
	}
	peakW += b.SoC.BoardBaselineW
	if peakW > maxBoardSaneW {
		addf("board full-load envelope %.1f W exceeds the %d W sanity bound", peakW, maxBoardSaneW)
	}

	// --- trip viability ------------------------------------------------
	// Throttled regime: the hardware cap on the big cluster, everything
	// else at full tilt. The self-consistent steady state must fall
	// below the release point, otherwise a tripped part never cools
	// enough to release and wedges at the cap forever.
	capMHz := big.FloorOPP(b.SoC.TripCapMHz).FreqMHz
	thr, err := FullLoadSteady(b, pm, capMHz)
	if err != nil {
		addf("throttled steady state: %v", err)
		return findings
	}
	bigNode := b.Net.NodeIndex(big.Name)
	if t := thr[bigNode]; t >= b.SoC.TripReleaseC {
		addf("throttled steady state %.1f °C on %s does not fall below the %.1f °C release point — a tripped part would never recover",
			t, big.Name, b.SoC.TripReleaseC)
	}
	// Full-tilt regime only needs to be finite (trip protection exists
	// precisely because it may exceed TripC).
	full, err := FullLoadSteady(b, pm, big.MaxFreqMHz())
	if err != nil {
		addf("full-load steady state: %v", err)
		return findings
	}
	for i, t := range full {
		if math.IsNaN(t) || math.IsInf(t, 0) || t > 1000 {
			addf("node %s: full-load steady state %.1f °C is not physical", b.Net.Nodes[i].Name, t)
		}
	}
	return findings
}

// fullLoad is cluster c's load with every core busy at freqMHz and tempC.
func fullLoad(c *soc.Cluster, freqMHz int, tempC float64) power.ClusterLoad {
	return power.ClusterLoad{FreqMHz: freqMHz, ActiveCores: c.NumCores, OnCores: c.NumCores, Utilization: 1, Activity: 1, TempC: tempC}
}

// clusterFullLoadW evaluates cluster i fully loaded at the given
// frequency and temperature.
func clusterFullLoadW(pm *power.Model, i, freqMHz int, tempC float64) (float64, error) {
	dyn, leak, err := pm.ClusterPower(i, fullLoad(&pm.Platform().Clusters[i], freqMHz, tempC))
	return dyn + leak, err
}

// FullLoadInjection writes into inj the node heat of bundle b with every
// cluster fully loaded, the big cluster at bigMHz and the others at their
// maximum OPP, leakage at the node temperatures temps and no DRAM
// traffic. sim.InjectHeat turns that power into heat, so the package
// takes the simulator's share of the board baseline. pm is b's power
// model; temps and inj are indexed like b's nodes.
func FullLoadInjection(b *Bundle, pm *power.Model, bigMHz int, temps, inj []float64) error {
	nodeOf, pkg, err := sim.ResolveNodes(b.SoC, b.Net)
	if err != nil {
		return err
	}
	big := b.SoC.Big()
	loads := make([]power.ClusterLoad, len(b.SoC.Clusters))
	for i := range b.SoC.Clusters {
		c := &b.SoC.Clusters[i]
		f := c.MaxFreqMHz()
		if c == big {
			f = bigMHz
		}
		loads[i] = fullLoad(c, f, temps[nodeOf[i]])
	}
	bd, err := pm.Evaluate(loads, 0)
	if err != nil {
		return err
	}
	sim.InjectHeat(inj, bd, nodeOf, pkg)
	return nil
}

// FullLoadSteady is the self-consistent steady state of bundle b under
// FullLoadInjection's load with the big cluster at bigMHz. Leakage depends
// on temperature and temperature on power, so the fixed point is found by
// iterating the injection at the current node temperatures against the
// linear steady-state solve from ambient; eight rounds converge to well
// under the check tolerances. Verify's trip checks and teemcal share it.
func FullLoadSteady(b *Bundle, pm *power.Model, bigMHz int) ([]float64, error) {
	tm, err := thermal.NewModel(b.Net, b.SoC.AmbientC)
	if err != nil {
		return nil, err
	}
	n := len(b.Net.Nodes)
	temps := make([]float64, n)
	for i := range temps {
		temps[i] = b.SoC.AmbientC
	}
	inj := make([]float64, n)
	var st []float64
	for round := 0; round < 8; round++ {
		if err := FullLoadInjection(b, pm, bigMHz, temps, inj); err != nil {
			return nil, err
		}
		if st, err = tm.SteadyState(inj); err != nil {
			return nil, err
		}
		copy(temps, st)
	}
	return st, nil
}

// Package soc describes heterogeneous multiprocessor system-on-chip (MPSoC)
// platforms: clusters of cores, their operating performance points (OPPs),
// cluster-wise DVFS constraints and sensor placement.
//
// The package is a pure description layer: it owns no simulation state.
// The canonical platform is the Samsung Exynos 5422 used by the Odroid-XU4
// board (see Exynos5422), the evaluation target of the TEEM paper, but any
// CPU-GPU MPSoC can be described.
package soc

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// ClusterKind distinguishes the micro-architectural role of a cluster.
// The zero kind is none of the three, so a cluster decoded without a
// kind fails Platform.Validate.
type ClusterKind int

const (
	// BigCPU marks a high-performance out-of-order CPU cluster
	// (e.g. ARM Cortex-A15).
	BigCPU ClusterKind = iota + 1
	// LittleCPU marks an energy-efficient in-order CPU cluster
	// (e.g. ARM Cortex-A7).
	LittleCPU
	// GPU marks a programmable graphics/compute cluster
	// (e.g. ARM Mali-T628).
	GPU
)

// String returns the conventional short name of the cluster kind.
func (k ClusterKind) String() string {
	switch k {
	case BigCPU:
		return "big"
	case LittleCPU:
		return "LITTLE"
	case GPU:
		return "GPU"
	default:
		return fmt.Sprintf("ClusterKind(%d)", int(k))
	}
}

// MarshalText encodes the kind as its String form, the "kind" of a
// cluster in a platform bundle file (internal/platform).
func (k ClusterKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText decodes the String form of one of the three kinds.
func (k *ClusterKind) UnmarshalText(text []byte) error {
	switch string(text) {
	case "big":
		*k = BigCPU
	case "LITTLE":
		*k = LittleCPU
	case "GPU":
		*k = GPU
	default:
		return fmt.Errorf("soc: unknown cluster kind %q (want big, LITTLE or GPU)", text)
	}
	return nil
}

// OPP is a single operating performance point: a frequency and the supply
// voltage required to sustain it.
type OPP struct {
	// FreqMHz is the clock frequency in MHz.
	FreqMHz int `json:"freq_mhz"`
	// VoltV is the supply voltage in volts.
	VoltV float64 `json:"volt_v"`
}

// Cluster describes one voltage/frequency island of the SoC. All cores of a
// cluster share a clock and a voltage rail (cluster-wise DVFS), as on the
// Exynos 5422.
type Cluster struct {
	// Name is a short identifier, e.g. "A15", "A7", "MaliT628".
	Name string `json:"name"`
	// Kind is the micro-architectural role.
	Kind ClusterKind `json:"kind"`
	// NumCores is the number of cores (CPU) or shader cores (GPU).
	NumCores int `json:"num_cores"`
	// OPPs is the table of supported operating points, sorted by
	// ascending frequency.
	OPPs []OPP `json:"opps"`

	// CdynCoreNF is the effective switched capacitance of one fully
	// active core in nanofarads; dynamic power of a core is
	// Cdyn·V²·f·activity.
	CdynCoreNF float64 `json:"cdyn_core_nf"`
	// LeakCoeff scales the static leakage power of one powered core
	// (watts at nominal voltage and 25 °C junction temperature).
	LeakCoeff float64 `json:"leak_coeff"`
	// LeakTempCoeff is the fractional leakage increase per °C above
	// 25 °C (super-linear leakage-temperature feedback linearised).
	LeakTempCoeff float64 `json:"leak_temp_coeff"`
}

// Validate reports an error if the cluster description is internally
// inconsistent.
func (c *Cluster) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("soc: cluster has empty name")
	}
	if c.NumCores <= 0 {
		return fmt.Errorf("soc: cluster %s: NumCores must be positive, got %d", c.Name, c.NumCores)
	}
	if len(c.OPPs) == 0 {
		return fmt.Errorf("soc: cluster %s: no OPPs", c.Name)
	}
	if !sort.SliceIsSorted(c.OPPs, func(i, j int) bool { return c.OPPs[i].FreqMHz < c.OPPs[j].FreqMHz }) {
		return fmt.Errorf("soc: cluster %s: OPPs not sorted by frequency", c.Name)
	}
	for i, p := range c.OPPs {
		if p.FreqMHz <= 0 {
			return fmt.Errorf("soc: cluster %s: OPP %d has non-positive frequency %d", c.Name, i, p.FreqMHz)
		}
		if !(p.VoltV > 0 && p.VoltV <= math.MaxFloat64) {
			return fmt.Errorf("soc: cluster %s: OPP %d VoltV must be positive and finite, got %g", c.Name, i, p.VoltV)
		}
		if i > 0 && c.OPPs[i-1].FreqMHz == p.FreqMHz {
			return fmt.Errorf("soc: cluster %s: duplicate OPP frequency %d MHz", c.Name, p.FreqMHz)
		}
		if i > 0 && c.OPPs[i-1].VoltV > p.VoltV {
			return fmt.Errorf("soc: cluster %s: voltage must be non-decreasing with frequency (OPP %d)", c.Name, i)
		}
	}
	if !(c.CdynCoreNF > 0 && c.CdynCoreNF <= math.MaxFloat64) {
		return fmt.Errorf("soc: cluster %s: CdynCoreNF must be positive and finite, got %g", c.Name, c.CdynCoreNF)
	}
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"LeakCoeff", c.LeakCoeff}, {"LeakTempCoeff", c.LeakTempCoeff}} {
		if !(f.v >= 0 && f.v <= math.MaxFloat64) {
			return fmt.Errorf("soc: cluster %s: %s must be finite and non-negative, got %g", c.Name, f.name, f.v)
		}
	}
	return nil
}

// MinFreqMHz returns the lowest supported frequency.
func (c *Cluster) MinFreqMHz() int { return c.OPPs[0].FreqMHz }

// MaxFreqMHz returns the highest supported frequency.
func (c *Cluster) MaxFreqMHz() int { return c.OPPs[len(c.OPPs)-1].FreqMHz }

// NumOPPs returns the number of operating points.
func (c *Cluster) NumOPPs() int { return len(c.OPPs) }

// OPPIndex returns the index of the OPP with exactly the given frequency,
// or -1 if the frequency is not a supported operating point.
func (c *Cluster) OPPIndex(freqMHz int) int {
	for i, p := range c.OPPs {
		if p.FreqMHz == freqMHz {
			return i
		}
	}
	return -1
}

// NearestOPP returns the supported OPP closest to the requested frequency,
// preferring the lower one on ties (conservative for thermal headroom).
func (c *Cluster) NearestOPP(freqMHz int) OPP {
	best := c.OPPs[0]
	bestD := abs(best.FreqMHz - freqMHz)
	for _, p := range c.OPPs[1:] {
		if d := abs(p.FreqMHz - freqMHz); d < bestD {
			best, bestD = p, d
		}
	}
	return best
}

// FloorOPP returns the highest OPP whose frequency does not exceed freqMHz.
// If freqMHz is below the minimum OPP, the minimum OPP is returned.
func (c *Cluster) FloorOPP(freqMHz int) OPP {
	best := c.OPPs[0]
	for _, p := range c.OPPs {
		if p.FreqMHz <= freqMHz {
			best = p
		}
	}
	return best
}

// CeilOPP returns the lowest OPP whose frequency is at least freqMHz.
// If freqMHz is above the maximum OPP, the maximum OPP is returned.
func (c *Cluster) CeilOPP(freqMHz int) OPP {
	for _, p := range c.OPPs {
		if p.FreqMHz >= freqMHz {
			return p
		}
	}
	return c.OPPs[len(c.OPPs)-1]
}

// VoltageAt returns the rail voltage required for the given frequency,
// snapping up to the next supported OPP.
func (c *Cluster) VoltageAt(freqMHz int) float64 {
	return c.CeilOPP(freqMHz).VoltV
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Platform is a complete MPSoC description. It is plain data, and its
// JSON tags are the schema of the "soc" object of a platform bundle file
// (internal/platform), so custom hardware is loaded at runtime instead
// of recompiled. Decoding does not validate: run Validate on untrusted
// input (platform.Load validates the bundle as a whole).
type Platform struct {
	// Name identifies the SoC, e.g. "Exynos5422".
	Name string `json:"name"`
	// Clusters lists the voltage/frequency islands. By convention CPU
	// clusters come first; use FirstOfKind or the Big, Little and GPU
	// helpers for order-independent access.
	Clusters []Cluster `json:"clusters"`
	// BoardBaselineW is the constant power draw of the rest of the
	// board (regulators, memory at idle, peripherals) in watts, as seen
	// by a board-level power meter such as the Odroid Smart Power 2.
	BoardBaselineW float64 `json:"board_baseline_w"`
	// DRAMPowerPerGBs is the additional power in watts per GB/s of
	// memory traffic generated by the workload.
	DRAMPowerPerGBs float64 `json:"dram_power_per_gbs"`
	// AmbientC is the ambient temperature in °C used by thermal models.
	AmbientC float64 `json:"ambient_c"`
	// TripC is the hardware thermal protection trip point in °C: when a
	// sensor reaches it the affected cluster is throttled by the
	// hardware regardless of software policy.
	TripC float64 `json:"trip_c"`
	// TripReleaseC is the temperature below which hardware throttling is
	// released (hysteresis).
	TripReleaseC float64 `json:"trip_release_c"`
	// TripCapMHz is the frequency cap applied by hardware protection to
	// the big CPU cluster (900 MHz on the stock Exynos 5422 firmware).
	TripCapMHz int `json:"trip_cap_mhz"`
}

// Clone returns a deep copy of p: the copy's clusters and OPP tables are
// its own, so either may be mutated without touching the other.
func (p *Platform) Clone() *Platform {
	c := *p
	c.Clusters = slices.Clone(p.Clusters)
	for i := range c.Clusters {
		c.Clusters[i].OPPs = slices.Clone(p.Clusters[i].OPPs)
	}
	return &c
}

// Validate reports an error if the platform description is inconsistent.
func (p *Platform) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("soc: platform has empty name")
	}
	seen := make(map[string]bool, len(p.Clusters))
	var perKind [GPU + 1]int
	for i := range p.Clusters {
		c := &p.Clusters[i]
		if err := c.Validate(); err != nil {
			return err
		}
		if seen[c.Name] {
			return fmt.Errorf("soc: platform %s: duplicate cluster name %q", p.Name, c.Name)
		}
		seen[c.Name] = true
		if c.Kind < BigCPU || c.Kind > GPU {
			return fmt.Errorf("soc: platform %s: cluster %s has unknown kind %s", p.Name, c.Name, c.Kind)
		}
		perKind[c.Kind]++
	}
	// The engine, the power model and the governors address one cluster
	// per kind (as do the node aliases @big, @little and @gpu).
	if perKind != [...]int{BigCPU: 1, LittleCPU: 1, GPU: 1} {
		return fmt.Errorf("soc: platform %s: want exactly one big, LITTLE and GPU cluster, got %d/%d/%d",
			p.Name, perKind[BigCPU], perKind[LittleCPU], perKind[GPU])
	}
	// The hardware cap must be a frequency the big cluster can run at:
	// a cap below its range (a missing trip_cap_mhz reads 0) throttles
	// to a clock the table does not have.
	if big := p.Big(); p.TripCapMHz < big.MinFreqMHz() || p.TripCapMHz > big.MaxFreqMHz() {
		return fmt.Errorf("soc: platform %s: trip cap %d MHz is outside the big cluster's %d–%d MHz range",
			p.Name, p.TripCapMHz, big.MinFreqMHz(), big.MaxFreqMHz())
	}
	// A NaN trip never fires and a non-finite temperature or power
	// coefficient turns every temperature of a run into NaN or ±Inf.
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"AmbientC", p.AmbientC}, {"TripC", p.TripC}, {"TripReleaseC", p.TripReleaseC}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("soc: platform %s: %s must be finite, got %g", p.Name, f.name, f.v)
		}
	}
	if p.TripC <= p.TripReleaseC {
		return fmt.Errorf("soc: platform %s: TripC (%g) must exceed TripReleaseC (%g)", p.Name, p.TripC, p.TripReleaseC)
	}
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"BoardBaselineW", p.BoardBaselineW}, {"DRAMPowerPerGBs", p.DRAMPowerPerGBs}} {
		if !(f.v >= 0 && f.v <= math.MaxFloat64) {
			return fmt.Errorf("soc: platform %s: %s must be finite and non-negative, got %g", p.Name, f.name, f.v)
		}
	}
	return nil
}

// FirstOfKind returns the first cluster of the given kind, or nil.
func (p *Platform) FirstOfKind(k ClusterKind) *Cluster {
	for i := range p.Clusters {
		if p.Clusters[i].Kind == k {
			return &p.Clusters[i]
		}
	}
	return nil
}

// Big returns the big CPU cluster (nil if the platform has none).
func (p *Platform) Big() *Cluster { return p.FirstOfKind(BigCPU) }

// Little returns the LITTLE CPU cluster (nil if the platform has none).
func (p *Platform) Little() *Cluster { return p.FirstOfKind(LittleCPU) }

// GPU returns the GPU cluster (nil if the platform has none).
func (p *Platform) GPU() *Cluster { return p.FirstOfKind(GPU) }

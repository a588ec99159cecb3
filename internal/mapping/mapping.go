// Package mapping enumerates the design points of the TEEM paper: CPU core
// mappings (Eq. 1), full mapping × frequency × partition design spaces
// (Eq. 2), the nine work-item partition grains, and the diverse subset the
// paper actually profiles (10 368 points). It also accounts storage bytes
// for the §V.D memory-optimisation comparison between table-based (EEMP)
// and model-based (TEEM) stores.
package mapping

import (
	"errors"
	"fmt"
)

// Mapping selects the CPU cores used for the CPU share of an application
// (cluster-level: counts of big and LITTLE cores) and whether the GPU
// cluster is used at all.
type Mapping struct {
	// Big and Little are the used core counts per CPU cluster.
	Big, Little int
	// UseGPU reports whether any work-items go to the GPU cluster.
	UseGPU bool
}

// String renders the paper's "2L+3B" notation (with "+GPU" when used).
func (m Mapping) String() string {
	s := fmt.Sprintf("%dL+%dB", m.Little, m.Big)
	if m.UseGPU {
		s += "+GPU"
	}
	return s
}

// CPUCores returns the number of CPU cores in use.
func (m Mapping) CPUCores() int { return m.Big + m.Little }

// Validate reports an error for impossible mappings given cluster sizes.
func (m Mapping) Validate(maxBig, maxLittle int) error {
	if m.Big < 0 || m.Big > maxBig {
		return fmt.Errorf("mapping: big core count %d outside [0,%d]", m.Big, maxBig)
	}
	if m.Little < 0 || m.Little > maxLittle {
		return fmt.Errorf("mapping: LITTLE core count %d outside [0,%d]", m.Little, maxLittle)
	}
	if m.Big == 0 && m.Little == 0 && !m.UseGPU {
		return errors.New("mapping: no compute resources selected")
	}
	return nil
}

// CountCPUMappings evaluates the paper's Eq. (1):
// M_CPU = Nb + NL + Nb·NL — big-only, LITTLE-only and combined mappings.
func CountCPUMappings(nb, nl int) int { return nb + nl + nb*nl }

// CPUMappings enumerates the Eq. (1) mapping set: {iB}, {jL}, {jL+iB} for
// i in 1..Nb, j in 1..NL. UseGPU is left false; callers toggle it.
func CPUMappings(nb, nl int) []Mapping {
	out := make([]Mapping, 0, CountCPUMappings(nb, nl))
	for i := 1; i <= nb; i++ {
		out = append(out, Mapping{Big: i})
	}
	for j := 1; j <= nl; j++ {
		out = append(out, Mapping{Little: j})
	}
	for i := 1; i <= nb; i++ {
		for j := 1; j <= nl; j++ {
			out = append(out, Mapping{Big: i, Little: j})
		}
	}
	return out
}

// Partition is a work-item split: Num/Den of the NDRange runs on the CPU
// clusters and the remainder on the GPU (the paper's WG_CPU).
type Partition struct {
	// Num and Den define the CPU fraction Num/Den.
	Num, Den int
}

// CPUFrac returns the CPU work-item fraction in [0,1].
func (p Partition) CPUFrac() float64 { return float64(p.Num) / float64(p.Den) }

// CPUItems returns the number of work-items (of total) on the CPU.
func (p Partition) CPUItems(total int) int {
	return p.Num * total / p.Den
}

// String renders e.g. "3/8".
func (p Partition) String() string { return fmt.Sprintf("%d/%d", p.Num, p.Den) }

// Validate reports an error for malformed partitions.
func (p Partition) Validate() error {
	if p.Den <= 0 {
		return fmt.Errorf("mapping: partition denominator %d must be positive", p.Den)
	}
	if p.Num < 0 || p.Num > p.Den {
		return fmt.Errorf("mapping: partition %d/%d outside [0,1]", p.Num, p.Den)
	}
	return nil
}

// NumPartitionGrains is the paper's partition grain count: 0, 1/8 … 1.
const NumPartitionGrains = 9

// Partitions returns the paper's nine work-item partition grains.
func Partitions() []Partition {
	out := make([]Partition, 0, NumPartitionGrains)
	for n := 0; n <= 8; n++ {
		out = append(out, Partition{Num: n, Den: 8})
	}
	return out
}

// NearestPartition snaps an arbitrary CPU fraction to the closest grain.
func NearestPartition(cpuFrac float64) Partition {
	if cpuFrac < 0 {
		cpuFrac = 0
	}
	if cpuFrac > 1 {
		cpuFrac = 1
	}
	n := int(cpuFrac*8 + 0.5)
	return Partition{Num: n, Den: 8}
}

// FreqSetting is a cluster-wise DVFS choice.
type FreqSetting struct {
	// BigMHz, LittleMHz, GPUMHz are per-cluster frequencies; a zero
	// means the cluster is unused/gated.
	BigMHz, LittleMHz, GPUMHz int
}

// String renders e.g. "B2000/L1400/G600".
func (f FreqSetting) String() string {
	return fmt.Sprintf("B%d/L%d/G%d", f.BigMHz, f.LittleMHz, f.GPUMHz)
}

// DesignPoint is one point of the paper's design space: a mapping, a
// frequency setting and a work-item partition.
type DesignPoint struct {
	Map  Mapping
	Freq FreqSetting
	Part Partition
}

// String renders a compact description.
func (d DesignPoint) String() string {
	return fmt.Sprintf("%s @%s part=%s", d.Map, d.Freq, d.Part)
}

// MaxDesignPoints evaluates the paper's Eq. (2):
//
//	MDP = {(Nb·Fb) + (NL·FL) + (Nb·Fb·NL·FL)} × {1·Fg}
//
// For the Exynos 5422 (Nb=NL=4, Fb=19, FL=13, Fg=7) this is 28 560.
func MaxDesignPoints(nb, fb, nl, fl, fg int) int {
	return (nb*fb + nl*fl + nb*fb*nl*fl) * fg
}

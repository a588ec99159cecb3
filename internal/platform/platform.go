// Package platform is the hardware catalog: it makes the simulated
// machine a first-class, JSON-defined axis instead of a pair of
// implicitly-coupled presets. A Bundle packages everything one board
// needs to simulate — the SoC description (clusters, OPP tables, trip
// points), the lumped RC thermal network it is calibrated against, and
// catalog metadata (deployment class, accelerator slots) — under one
// name.
//
// Bundles are plain data: define one in JSON (Load/Save — the soc and
// thermal schemas nest unchanged), or resolve a builtin by name through
// the embedded catalog (Get, Names, Resolve). Every layer above consumes
// the axis by name: scenario grids fan out scenario × governor ×
// platform, teemscenario takes -platform/-platforms, and teemd validates
// a JobRequest's platform field at submission.
//
// Verify runs the catalog-wide validation suite over a bundle — OPP
// monotonicity, cluster-to-node sensor resolution, network connectivity
// and stability, power-model sanity at the OPP extremes, and
// trip-release viability — so every registered platform is known-good
// before a simulation ever boots on it. See docs/platforms.md.
package platform

import (
	"fmt"
	"math"

	"teem/internal/sim"
	"teem/internal/soc"
	"teem/internal/thermal"
)

// Class buckets platforms by deployment segment. The class is catalog
// metadata — cross-platform sweeps select and report by it.
type Class string

// Deployment classes.
const (
	// Edge marks passively-cooled embedded parts (gateways, cameras).
	Edge Class = "edge"
	// Mobile marks phone/tablet-class SoCs (tight thermal budgets,
	// aggressive DVFS ranges, accelerator blocks).
	Mobile Class = "mobile"
	// Server marks actively-cooled many-core parts with dense thermal
	// networks (heatsink, regulator and DIMM nodes).
	Server Class = "server"
)

// Valid reports whether c is a known deployment class.
func (c Class) Valid() bool {
	switch c {
	case Edge, Mobile, Server:
		return true
	}
	return false
}

// AcceleratorSlot records a fixed-function accelerator attached to the
// SoC — an NPU, DSP or FPGA block. Slots are catalog metadata in the
// lumos MPSoC composition style: the co-simulation models the CPU and
// GPU clusters, and slots describe what else the part carries so
// mappers and future backends can reason about offload capacity. A slot
// may own a thermal node of the same name in the bundled network.
type AcceleratorSlot struct {
	// Name identifies the slot, e.g. "npu0".
	Name string `json:"name"`
	// Kind is the block type, e.g. "NPU", "DSP", "ISP", "FPGA".
	Kind string `json:"kind"`
	// TOPS is the nominal int8 throughput in tera-operations/s.
	TOPS float64 `json:"tops,omitempty"`
	// PeakW is the block's peak power draw in watts.
	PeakW float64 `json:"peak_w,omitempty"`
}

// Bundle is one catalog entry: a SoC and the thermal network it is
// calibrated against, plus metadata. The pair is validated together —
// every cluster resolves to a sensor node, the "pkg" node exists — so a
// resolved bundle can never reproduce the historical silent-mismatch
// failure mode (sim.ErrPlatformNetMismatch). Its JSON tags are the
// bundle file's schema (Load, Save): the soc and thermal objects are
// the SoC's and the network's own JSON forms, so the pair travels as one
// document instead of two coupled ones.
type Bundle struct {
	// Name is the catalog key, e.g. "exynos5422". Builtin bundles are
	// stored as catalog/<name>.json.
	Name string `json:"name"`
	// Class is the deployment segment.
	Class Class `json:"class"`
	// Description is a one-line human summary for listings.
	Description string `json:"description,omitempty"`
	// SoC is the platform description (clusters, OPPs, trip points).
	SoC *soc.Platform `json:"soc"`
	// Net is the lumped RC thermal network calibrated for the SoC as
	// mounted on its reference board.
	Net *thermal.Network `json:"thermal"`
	// Accelerators lists fixed-function accelerator slots (metadata).
	Accelerators []AcceleratorSlot `json:"accelerators,omitempty"`
}

// Validate reports an error if the bundle is structurally inconsistent:
// missing pieces, an invalid SoC or network, a platform/network pair
// that cannot carry each other, or malformed accelerator slots.
func (b *Bundle) Validate() error {
	if b.Name == "" {
		return fmt.Errorf("platform: bundle has empty name")
	}
	if !b.Class.Valid() {
		return fmt.Errorf("platform %s: unknown class %q (want edge, mobile or server)", b.Name, b.Class)
	}
	if b.SoC == nil {
		return fmt.Errorf("platform %s: missing soc description", b.Name)
	}
	if b.Net == nil {
		return fmt.Errorf("platform %s: missing thermal network", b.Name)
	}
	if err := b.SoC.Validate(); err != nil {
		return fmt.Errorf("platform %s: %w", b.Name, err)
	}
	if err := b.Net.Validate(); err != nil {
		return fmt.Errorf("platform %s: %w", b.Name, err)
	}
	if _, _, err := sim.ResolveNodes(b.SoC, b.Net); err != nil {
		return fmt.Errorf("platform %s: %w", b.Name, err)
	}
	seen := make(map[string]bool, len(b.Accelerators))
	for i := range b.Accelerators {
		a := &b.Accelerators[i]
		if a.Name == "" {
			return fmt.Errorf("platform %s: accelerator slot %d has empty name", b.Name, i)
		}
		if a.Kind == "" {
			return fmt.Errorf("platform %s: accelerator %s has empty kind", b.Name, a.Name)
		}
		if seen[a.Name] {
			return fmt.Errorf("platform %s: duplicate accelerator slot %q", b.Name, a.Name)
		}
		seen[a.Name] = true
		for _, f := range [...]struct {
			name string
			v    float64
		}{{"TOPS", a.TOPS}, {"PeakW", a.PeakW}} {
			if !(f.v >= 0 && f.v <= math.MaxFloat64) {
				return fmt.Errorf("platform %s: accelerator %s: %s must be finite and non-negative, got %g",
					b.Name, a.Name, f.name, f.v)
			}
		}
	}
	return nil
}

//go:build ignore

// Generator for the builtin platform catalog.
//
//	go run gen.go
//
// writes catalog/<name>.json for every builtin bundle. The two Exynos
// entries are produced from the soc/thermal Go constructors so the
// catalog stays deep-equal to them (pinned by TestCatalogMatchesConstructors);
// the remaining platforms are authored here. Each bundle must pass the
// full Verify suite before it is written — a miscalibrated entry fails
// the generation run, not a later test.
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"teem/internal/platform"
	"teem/internal/soc"
	"teem/internal/thermal"
)

func main() {
	bundles := []*platform.Bundle{
		exynos5422(),
		exynos5410(),
		kestrelE2(),
		sparrowE1(),
		merlinM3(),
		harrierS16(),
	}
	if err := os.MkdirAll("catalog", 0o755); err != nil {
		fatal(err)
	}
	for _, b := range bundles {
		if findings := platform.Verify(b); len(findings) > 0 {
			fmt.Fprintf(os.Stderr, "gen: %s fails verification:\n", b.Name)
			for _, f := range findings {
				fmt.Fprintf(os.Stderr, "  - %s\n", f)
			}
			os.Exit(1)
		}
		path := filepath.Join("catalog", b.Name+".json")
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		if err := b.Save(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", path)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gen:", err)
	os.Exit(1)
}

func exynos5422() *platform.Bundle {
	return &platform.Bundle{
		Name:        "exynos5422",
		Class:       platform.Mobile,
		Description: "Samsung Exynos 5422 on the Odroid-XU4 — the paper's evaluation board (4×A15 + 4×A7 + Mali-T628)",
		SoC:         soc.Exynos5422(),
		Net:         thermal.Exynos5422Network(),
	}
}

func exynos5410() *platform.Bundle {
	return &platform.Bundle{
		Name:        "exynos5410",
		Class:       platform.Mobile,
		Description: "Samsung Exynos 5410 on the Odroid-XU — the 5422's hotter cluster-migration predecessor (4×A15 + 4×A7 + SGX544MP3)",
		SoC:         soc.Exynos5410(),
		Net:         thermal.Exynos5410Network(),
	}
}

// kestrelE2 is a fanless edge-gateway part: quad A76-class big cluster,
// quad A55-class LITTLE, small 4-shader G52-class GPU. Passive cooling
// gives it a large package-to-ambient resistance, so it trips under
// sustained full load in hot enclosures but holds its cap comfortably.
func kestrelE2() *platform.Bundle {
	return &platform.Bundle{
		Name:        "kestrel-e2",
		Class:       platform.Edge,
		Description: "fanless quad-A76/quad-A55 edge gateway with a 4-shader G52-class GPU, passively cooled",
		SoC: &soc.Platform{
			Name: "KestrelE2",
			Clusters: []soc.Cluster{
				{
					Name:     "A76",
					Kind:     soc.BigCPU,
					NumCores: 4,
					OPPs: soc.RampOPPs(500, 2200, 100, []soc.VoltPoint{
						{500, 0.8000}, {1000, 0.8750}, {1600, 0.9750},
						{2000, 1.0750}, {2200, 1.1500},
					}),
					CdynCoreNF:    0.30,
					LeakCoeff:     0.08,
					LeakTempCoeff: 0.012,
				},
				{
					Name:     "A55",
					Kind:     soc.LittleCPU,
					NumCores: 4,
					OPPs: soc.RampOPPs(200, 1800, 100, []soc.VoltPoint{
						{200, 0.7500}, {800, 0.8250}, {1400, 0.9250},
						{1800, 1.0250},
					}),
					CdynCoreNF:    0.07,
					LeakCoeff:     0.015,
					LeakTempCoeff: 0.010,
				},
				{
					Name:     "G52",
					Kind:     soc.GPU,
					NumCores: 4,
					OPPs: []soc.OPP{
						{FreqMHz: 200, VoltV: 0.8000},
						{FreqMHz: 300, VoltV: 0.8250},
						{FreqMHz: 400, VoltV: 0.8500},
						{FreqMHz: 500, VoltV: 0.9000},
						{FreqMHz: 600, VoltV: 0.9500},
						{FreqMHz: 700, VoltV: 1.0000},
						{FreqMHz: 800, VoltV: 1.0500},
					},
					CdynCoreNF:    0.38,
					LeakCoeff:     0.05,
					LeakTempCoeff: 0.010,
				},
			},
			BoardBaselineW:  1.90,
			DRAMPowerPerGBs: 0.18,
			AmbientC:        28.0,
			TripC:           92.0,
			TripReleaseC:    84.0,
			TripCapMHz:      1000,
		},
		Net: &thermal.Network{
			Nodes: []thermal.Node{
				{Name: "A76", HeatCapJ: 1.0},
				{Name: "A55", HeatCapJ: 0.5},
				{Name: "G52", HeatCapJ: 0.9},
				{Name: "pkg", HeatCapJ: 2.0},
			},
			Links: []thermal.Link{
				{A: 0, B: 3, ResCW: 4.2},
				{A: 1, B: 3, ResCW: 5.5},
				{A: 2, B: 3, ResCW: 3.8},
				{A: 3, B: thermal.Ambient, ResCW: 7.2},
				{A: 0, B: thermal.Ambient, ResCW: 70.0},
				{A: 2, B: thermal.Ambient, ResCW: 90.0},
				{A: 0, B: 2, ResCW: 16.0},
			},
		},
		Accelerators: []platform.AcceleratorSlot{
			{Name: "isp0", Kind: "ISP", TOPS: 1.0},
		},
	}
}

// sparrowE1 is a battery-class edge sensor node: modest A73-class big
// cluster, A53-class LITTLE, a 2-shader G31-class GPU and a tiny thermal
// envelope. Everything about it is small — including the trip points.
func sparrowE1() *platform.Bundle {
	return &platform.Bundle{
		Name:        "sparrow-e1",
		Class:       platform.Edge,
		Description: "low-power quad-A73/quad-A53 edge sensor node with a 2-shader G31-class GPU, sub-4 W envelope",
		SoC: &soc.Platform{
			Name: "SparrowE1",
			Clusters: []soc.Cluster{
				{
					Name:     "A73",
					Kind:     soc.BigCPU,
					NumCores: 4,
					OPPs: soc.RampOPPs(400, 1600, 100, []soc.VoltPoint{
						{400, 0.7750}, {800, 0.8500}, {1200, 0.9500},
						{1600, 1.0750},
					}),
					CdynCoreNF:    0.24,
					LeakCoeff:     0.06,
					LeakTempCoeff: 0.011,
				},
				{
					Name:     "A53",
					Kind:     soc.LittleCPU,
					NumCores: 4,
					OPPs: soc.RampOPPs(200, 1100, 100, []soc.VoltPoint{
						{200, 0.7500}, {600, 0.8125}, {1100, 0.9000},
					}),
					CdynCoreNF:    0.06,
					LeakCoeff:     0.012,
					LeakTempCoeff: 0.010,
				},
				{
					Name:     "G31",
					Kind:     soc.GPU,
					NumCores: 2,
					OPPs: []soc.OPP{
						{FreqMHz: 150, VoltV: 0.7750},
						{FreqMHz: 250, VoltV: 0.8000},
						{FreqMHz: 350, VoltV: 0.8500},
						{FreqMHz: 450, VoltV: 0.9000},
						{FreqMHz: 550, VoltV: 0.9500},
						{FreqMHz: 650, VoltV: 1.0000},
					},
					CdynCoreNF:    0.35,
					LeakCoeff:     0.04,
					LeakTempCoeff: 0.010,
				},
			},
			BoardBaselineW:  1.10,
			DRAMPowerPerGBs: 0.15,
			AmbientC:        28.0,
			TripC:           85.0,
			TripReleaseC:    76.0,
			TripCapMHz:      600,
		},
		Net: &thermal.Network{
			Nodes: []thermal.Node{
				{Name: "A73", HeatCapJ: 0.7},
				{Name: "A53", HeatCapJ: 0.4},
				{Name: "G31", HeatCapJ: 0.5},
				{Name: "pkg", HeatCapJ: 1.2},
			},
			Links: []thermal.Link{
				{A: 0, B: 3, ResCW: 5.5},
				{A: 1, B: 3, ResCW: 6.5},
				{A: 2, B: 3, ResCW: 5.0},
				{A: 3, B: thermal.Ambient, ResCW: 11.0},
				{A: 0, B: thermal.Ambient, ResCW: 90.0},
				{A: 0, B: 2, ResCW: 20.0},
			},
		},
	}
}

// merlinM3 is a flagship-phone part: prime X4-class big cluster pushed to
// 2.8 GHz, A520-class LITTLE, an 8-shader G720-class GPU and an NPU block
// with its own thermal node. The classic mobile profile — burst far above
// what the chassis can sustain, then live on the trip hysteresis.
func merlinM3() *platform.Bundle {
	return &platform.Bundle{
		Name:        "merlin-m3",
		Class:       platform.Mobile,
		Description: "flagship-phone SoC: quad X4-class prime cluster to 2.8 GHz, quad A520-class LITTLE, 8-shader G720-class GPU, 34-TOPS NPU",
		SoC: &soc.Platform{
			Name: "MerlinM3",
			Clusters: []soc.Cluster{
				{
					Name:     "X4",
					Kind:     soc.BigCPU,
					NumCores: 4,
					OPPs: soc.RampOPPs(300, 2800, 100, []soc.VoltPoint{
						{300, 0.6500}, {1000, 0.7500}, {1800, 0.9000},
						{2400, 1.0500}, {2800, 1.2000},
					}),
					CdynCoreNF:    0.42,
					LeakCoeff:     0.10,
					LeakTempCoeff: 0.012,
				},
				{
					Name:     "A520",
					Kind:     soc.LittleCPU,
					NumCores: 4,
					OPPs: soc.RampOPPs(300, 2000, 100, []soc.VoltPoint{
						{300, 0.6500}, {1000, 0.7750}, {1600, 0.9000},
						{2000, 1.0000},
					}),
					CdynCoreNF:    0.10,
					LeakCoeff:     0.02,
					LeakTempCoeff: 0.010,
				},
				{
					Name:     "G720",
					Kind:     soc.GPU,
					NumCores: 8,
					OPPs: []soc.OPP{
						{FreqMHz: 300, VoltV: 0.7000},
						{FreqMHz: 400, VoltV: 0.7500},
						{FreqMHz: 500, VoltV: 0.8000},
						{FreqMHz: 600, VoltV: 0.8500},
						{FreqMHz: 700, VoltV: 0.9250},
						{FreqMHz: 800, VoltV: 1.0000},
						{FreqMHz: 900, VoltV: 1.0750},
					},
					CdynCoreNF:    0.30,
					LeakCoeff:     0.05,
					LeakTempCoeff: 0.010,
				},
			},
			BoardBaselineW:  2.40,
			DRAMPowerPerGBs: 0.28,
			AmbientC:        28.0,
			TripC:           94.0,
			TripReleaseC:    86.0,
			TripCapMHz:      1100,
		},
		Net: &thermal.Network{
			Nodes: []thermal.Node{
				{Name: "X4", HeatCapJ: 1.0},
				{Name: "A520", HeatCapJ: 0.6},
				{Name: "G720", HeatCapJ: 1.6},
				{Name: "npu0", HeatCapJ: 0.8},
				{Name: "pkg", HeatCapJ: 1.8},
			},
			Links: []thermal.Link{
				{A: 0, B: 4, ResCW: 4.3},
				{A: 1, B: 4, ResCW: 5.2},
				{A: 2, B: 4, ResCW: 3.0},
				{A: 3, B: 4, ResCW: 4.0},
				{A: 4, B: thermal.Ambient, ResCW: 7.6},
				{A: 0, B: thermal.Ambient, ResCW: 65.0},
				{A: 2, B: thermal.Ambient, ResCW: 85.0},
				{A: 0, B: 2, ResCW: 14.0},
			},
		},
		Accelerators: []platform.AcceleratorSlot{
			{Name: "npu0", Kind: "NPU", TOPS: 34, PeakW: 4.5},
		},
	}
}

// harrierS16 is an actively-cooled many-core server part: eight
// N3-class performance cores, eight E3-class efficiency cores and a wide
// 32-shader compute GPU behind a real heatsink. The dense thermal
// network carries heatsink, VRM, DIMM and I/O nodes — the
// server-catalog shape the verification suite exists to keep honest.
func harrierS16() *platform.Bundle {
	return &platform.Bundle{
		Name:        "harrier-s16",
		Class:       platform.Server,
		Description: "actively-cooled 16-core server SoC: 8×N3-class big, 8×E3-class efficiency, 32-shader compute GPU, heatsink/VRM/DIMM thermal nodes",
		SoC: &soc.Platform{
			Name: "HarrierS16",
			Clusters: []soc.Cluster{
				{
					Name:     "N3",
					Kind:     soc.BigCPU,
					NumCores: 8,
					OPPs: soc.RampOPPs(1000, 3400, 200, []soc.VoltPoint{
						{1000, 0.7500}, {1800, 0.8250}, {2600, 0.9250},
						{3000, 0.9750}, {3400, 1.0500},
					}),
					CdynCoreNF:    0.50,
					LeakCoeff:     0.12,
					LeakTempCoeff: 0.013,
				},
				{
					Name:     "E3",
					Kind:     soc.LittleCPU,
					NumCores: 8,
					OPPs: soc.RampOPPs(800, 2200, 200, []soc.VoltPoint{
						{800, 0.7250}, {1400, 0.7750}, {2200, 0.9000},
					}),
					CdynCoreNF:    0.15,
					LeakCoeff:     0.03,
					LeakTempCoeff: 0.011,
				},
				{
					Name:     "CG2",
					Kind:     soc.GPU,
					NumCores: 32,
					OPPs: []soc.OPP{
						{FreqMHz: 400, VoltV: 0.7500},
						{FreqMHz: 600, VoltV: 0.8000},
						{FreqMHz: 800, VoltV: 0.8500},
						{FreqMHz: 1000, VoltV: 0.9250},
						{FreqMHz: 1200, VoltV: 1.0000},
					},
					CdynCoreNF:    0.22,
					LeakCoeff:     0.03,
					LeakTempCoeff: 0.010,
				},
			},
			BoardBaselineW:  7.50,
			DRAMPowerPerGBs: 0.35,
			AmbientC:        25.0,
			TripC:           95.0,
			TripReleaseC:    85.0,
			TripCapMHz:      1800,
		},
		Net: &thermal.Network{
			Nodes: []thermal.Node{
				{Name: "N3", HeatCapJ: 3.0},
				{Name: "E3", HeatCapJ: 2.0},
				{Name: "CG2", HeatCapJ: 4.5},
				{Name: "pkg", HeatCapJ: 10.0},
				{Name: "hs", HeatCapJ: 180.0},
				{Name: "vrm", HeatCapJ: 4.0},
				{Name: "dimm", HeatCapJ: 6.0},
				{Name: "io", HeatCapJ: 3.0},
			},
			Links: []thermal.Link{
				{A: 0, B: 3, ResCW: 0.9},
				{A: 1, B: 3, ResCW: 1.3},
				{A: 2, B: 3, ResCW: 0.8},
				{A: 0, B: 2, ResCW: 6.0},
				{A: 3, B: 4, ResCW: 0.35},
				{A: 4, B: thermal.Ambient, ResCW: 0.55},
				{A: 3, B: thermal.Ambient, ResCW: 28.0},
				{A: 5, B: 3, ResCW: 5.0},
				{A: 5, B: thermal.Ambient, ResCW: 14.0},
				{A: 6, B: 3, ResCW: 7.0},
				{A: 6, B: thermal.Ambient, ResCW: 11.0},
				{A: 7, B: 3, ResCW: 6.5},
			},
		},
		Accelerators: []platform.AcceleratorSlot{
			{Name: "bmc0", Kind: "BMC", TOPS: 0},
		},
	}
}

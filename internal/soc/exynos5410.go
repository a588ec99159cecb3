package soc

// Exynos5410 returns a description of the Samsung Exynos 5410 (the
// Odroid-XU predecessor of the paper's 5422): a quad Cortex-A15 big
// cluster up to 1600 MHz, a quad Cortex-A7 LITTLE cluster up to 1200 MHz
// and a PowerVR SGX544MP3 GPU with 3 cores up to 533 MHz. It demonstrates
// that nothing in the library is hard-wired to the 5422 — design-space
// enumeration, governors and TEEM run on any described platform.
//
// The 5410's firmware trips at 90 °C (it ran notoriously hot with
// cluster-migration big.LITTLE) and caps the big cluster at 800 MHz.
func Exynos5410() *Platform {
	return &Platform{
		Name: "Exynos5410",
		Clusters: []Cluster{
			{
				Name:     "A15",
				Kind:     BigCPU,
				NumCores: 4,
				OPPs: RampOPPs(600, 1600, 100, []VoltPoint{
					{600, 0.9500}, {1000, 1.0375}, {1400, 1.1750},
					{1600, 1.3000},
				}),
				CdynCoreNF:    0.38,
				LeakCoeff:     0.11,
				LeakTempCoeff: 0.013,
			},
			{
				Name:     "A7",
				Kind:     LittleCPU,
				NumCores: 4,
				OPPs: RampOPPs(200, 1200, 100, []VoltPoint{
					{200, 0.9000}, {600, 0.9625}, {1200, 1.1875},
				}),
				CdynCoreNF:    0.09,
				LeakCoeff:     0.02,
				LeakTempCoeff: 0.010,
			},
			{
				Name:     "SGX544",
				Kind:     GPU,
				NumCores: 3,
				OPPs: []OPP{
					{FreqMHz: 177, VoltV: 0.9250},
					{FreqMHz: 266, VoltV: 0.9625},
					{FreqMHz: 350, VoltV: 1.0000},
					{FreqMHz: 480, VoltV: 1.0750},
					{FreqMHz: 533, VoltV: 1.1250},
				},
				CdynCoreNF:    0.60,
				LeakCoeff:     0.07,
				LeakTempCoeff: 0.010,
			},
		},
		BoardBaselineW:  2.50,
		DRAMPowerPerGBs: 0.25,
		AmbientC:        28.0,
		TripC:           90.0,
		TripReleaseC:    83.0,
		TripCapMHz:      800,
	}
}

package soc

// Exynos5422 returns a description of the Samsung Exynos 5422 MPSoC as
// integrated on the Odroid-XU4 board: a quad-core Cortex-A15 big cluster
// (200–2000 MHz in 100 MHz steps, 19 OPPs), a quad-core Cortex-A7 LITTLE
// cluster (200–1400 MHz, 13 OPPs) and a Mali-T628 MP6 GPU with 6 shader
// cores (7 OPPs up to 600 MHz). Voltages follow the published DVFS tables
// closely enough for power-model purposes.
//
// The stock firmware trips hardware thermal protection at 95 °C and caps
// the big cluster at 900 MHz until the sensor falls below ~90 °C; that
// reactive behaviour is the paper's Fig. 1(a) baseline.
func Exynos5422() *Platform {
	return &Platform{
		Name: "Exynos5422",
		Clusters: []Cluster{
			{
				Name:     "A15",
				Kind:     BigCPU,
				NumCores: 4,
				OPPs: RampOPPs(200, 2000, 100, []VoltPoint{
					{200, 0.9125}, {600, 0.9625}, {1000, 1.0250},
					{1400, 1.1125}, {1600, 1.1250}, {1800, 1.1900}, {2000, 1.4250},
				}),
				CdynCoreNF:    0.35,
				LeakCoeff:     0.10,
				LeakTempCoeff: 0.012,
			},
			{
				Name:     "A7",
				Kind:     LittleCPU,
				NumCores: 4,
				OPPs: RampOPPs(200, 1400, 100, []VoltPoint{
					{200, 0.9125}, {600, 0.9625}, {1000, 1.0375},
					{1400, 1.2500},
				}),
				CdynCoreNF:    0.08,
				LeakCoeff:     0.02,
				LeakTempCoeff: 0.010,
			},
			{
				Name:     "MaliT628",
				Kind:     GPU,
				NumCores: 6,
				OPPs: []OPP{
					{FreqMHz: 177, VoltV: 0.9125},
					{FreqMHz: 266, VoltV: 0.9375},
					{FreqMHz: 350, VoltV: 0.9625},
					{FreqMHz: 420, VoltV: 1.0000},
					{FreqMHz: 480, VoltV: 1.0375},
					{FreqMHz: 543, VoltV: 1.0875},
					{FreqMHz: 600, VoltV: 1.1500},
				},
				CdynCoreNF:    0.45,
				LeakCoeff:     0.06,
				LeakTempCoeff: 0.010,
			},
		},
		BoardBaselineW:  2.80,
		DRAMPowerPerGBs: 0.22,
		AmbientC:        28.0,
		TripC:           95.0,
		TripReleaseC:    87.0,
		TripCapMHz:      900,
	}
}

// VoltPoint is an anchor on the voltage-frequency curve of a dense OPP
// ramp (see RampOPPs).
type VoltPoint struct {
	FreqMHz int
	VoltV   float64
}

// RampOPPs builds an OPP table from loMHz to hiMHz (inclusive) in stepMHz
// increments, interpolating voltages piecewise-linearly between anchors
// and holding the end anchors' voltages outside them. The catalog
// generator (internal/platform/gen.go) builds its ramps with it too.
func RampOPPs(loMHz, hiMHz, stepMHz int, anchors []VoltPoint) []OPP {
	var opps []OPP
	for f := loMHz; f <= hiMHz; f += stepMHz {
		opps = append(opps, OPP{FreqMHz: f, VoltV: interpVolt(anchors, f)})
	}
	return opps
}

func interpVolt(anchors []VoltPoint, freqMHz int) float64 {
	if len(anchors) == 0 {
		return 1.0
	}
	if freqMHz <= anchors[0].FreqMHz {
		return anchors[0].VoltV
	}
	last := anchors[len(anchors)-1]
	if freqMHz >= last.FreqMHz {
		return last.VoltV
	}
	for i := 1; i < len(anchors); i++ {
		a, b := anchors[i-1], anchors[i]
		if freqMHz <= b.FreqMHz {
			t := float64(freqMHz-a.FreqMHz) / float64(b.FreqMHz-a.FreqMHz)
			return a.VoltV + t*(b.VoltV-a.VoltV)
		}
	}
	return last.VoltV
}

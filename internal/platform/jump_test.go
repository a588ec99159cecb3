package platform

import (
	"math"
	"testing"

	"teem/internal/power"
	"teem/internal/sim"
	"teem/internal/thermal"
)

// Every catalog network jumps within 1e-9 °C of sequential ticks at its
// full-load operating point — every cluster fully loaded at its top OPP,
// leakage slopes folded into the jump map — over each horizon from 1 to
// 99 ticks, then 1,000 and 100,000, heating from ambient.
func TestCatalogJumpsMatchTicks(t *testing.T) {
	horizons := []int{1000, 100000}
	for h := 99; h >= 1; h-- {
		horizons = append([]int{h}, horizons...)
	}
	for _, name := range Names() {
		b, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		pm, err := power.NewModel(b.SoC)
		if err != nil {
			t.Fatal(err)
		}
		nodeOf, _, err := sim.ResolveNodes(b.SoC, b.Net)
		if err != nil {
			t.Fatal(err)
		}
		// The affine power law P(T) = pConst + slope·T: the full-load
		// heat at 25 °C, where leakage is its base, less slope·25.
		n := len(b.Net.Nodes)
		at25, pConst, slope, inj := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range at25 {
			at25[i] = 25
		}
		if err := FullLoadInjection(b, pm, b.SoC.Big().MaxFreqMHz(), at25, pConst); err != nil {
			t.Fatal(err)
		}
		for i := range b.SoC.Clusters {
			c := &b.SoC.Clusters[i]
			_, _, s, err := pm.ClusterPowerAffine(i, fullLoad(c, c.MaxFreqMHz(), 25))
			if err != nil {
				t.Fatal(err)
			}
			slope[nodeOf[i]] += s
		}
		for i := range pConst {
			pConst[i] -= 25 * slope[i]
		}
		var ref *thermal.Model
		steppers := make([]*thermal.Stepper, 2)
		for i := range steppers {
			m, err := thermal.NewModel(b.Net, b.SoC.AmbientC)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				ref = m
			}
			if steppers[i], err = m.NewStepper(sim.TickS); err != nil {
				t.Fatal(err)
			}
		}
		ss, err := thermal.NewSuperstep(steppers[1], slope)
		if err != nil {
			t.Fatal(err)
		}
		worst := 0.0
		for _, h := range horizons {
			for k := 0; k < h; k++ {
				for i := range inj {
					inj[i] = pConst[i] + slope[i]*ref.Temp(i)
				}
				if err := steppers[0].Step(inj); err != nil {
					t.Fatal(err)
				}
			}
			end, dir, err := ss.Jump(h, pConst)
			if err != nil || dir != 1 {
				t.Fatalf("%s: %d-tick jump: dir %d, err %v; want a rising jump", name, h, dir, err)
			}
			if err := ss.Commit(); err != nil {
				t.Fatal(err)
			}
			for i, v := range end {
				d := math.Abs(v - ref.Temp(i))
				worst = math.Max(worst, d)
				if d > 1e-9 {
					t.Errorf("%s: %d-tick jump: node %s at %.12f, ticks %.12f", name, h, b.Net.Nodes[i].Name, v, ref.Temp(i))
				}
			}
		}
		t.Logf("%s: %d nodes, worst |jump − ticks| %.2g °C", name, n, worst)
	}
}

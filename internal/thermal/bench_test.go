package thermal

import "testing"

// BenchmarkStep measures one 10 ms simulation step of the Exynos network
// (the inner loop of every co-simulation tick).
func BenchmarkStep(b *testing.B) {
	m, err := NewModel(Exynos5422Network(), 28)
	if err != nil {
		b.Fatal(err)
	}
	p := []float64{4.5, 0.4, 2.6, 1.85}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Step(p, 0.01); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStepperStep measures one 10 ms exact-propagator step — the
// integrator behind every co-simulation tick.
func BenchmarkStepperStep(b *testing.B) {
	m, err := NewModel(Exynos5422Network(), 28)
	if err != nil {
		b.Fatal(err)
	}
	s, err := m.NewStepper(0.01)
	if err != nil {
		b.Fatal(err)
	}
	p := []float64{4.5, 0.4, 2.6, 1.85}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Step(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSteadyState measures the direct equilibrium solve used by the
// analytic design-point evaluator.
func BenchmarkSteadyState(b *testing.B) {
	m, err := NewModel(Exynos5422Network(), 28)
	if err != nil {
		b.Fatal(err)
	}
	p := []float64{4.5, 0.4, 2.6, 1.85}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.SteadyState(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuperstepJump measures one planned superstep — b̃, the
// one-tick direction probe and the n-tick advance — on the 4-node Exynos
// network and an 8-node chain, at a horizon with few set bits (37) and at
// the longest jump the engine takes between 1 s meter samples (99). A
// repeated horizon is the engine's steady pattern; 37+99 alternates the
// two, so every jump of it also powers the modes' eigenvalues.
func BenchmarkSuperstepJump(b *testing.B) {
	chain := &Network{}
	for i := 0; i < 8; i++ {
		chain.Nodes = append(chain.Nodes, Node{Name: string(rune('a' + i)), HeatCapJ: 0.5 + float64(i)})
		chain.Links = append(chain.Links, Link{A: i, B: Ambient, ResCW: 20 + 5*float64(i)})
		if i > 0 {
			chain.Links = append(chain.Links, Link{A: i - 1, B: i, ResCW: 1 + float64(i)})
		}
	}
	for _, c := range []struct {
		name string
		net  *Network
	}{{"4node", Exynos5422Network()}, {"8node", chain}} {
		for _, h := range []struct {
			name  string
			ticks [2]int
		}{{"37", [2]int{37, 37}}, {"99", [2]int{99, 99}}, {"37+99", [2]int{37, 99}}} {
			b.Run(c.name+"/"+h.name, func(b *testing.B) {
				m, err := NewModel(c.net, 28)
				if err != nil {
					b.Fatal(err)
				}
				st, err := m.NewStepper(0.01)
				if err != nil {
					b.Fatal(err)
				}
				n := len(c.net.Nodes)
				slope, p := make([]float64, n), make([]float64, n)
				for i := range slope {
					slope[i], p[i] = 0.002, 1.5
				}
				ss, err := NewSuperstep(st, slope)
				if err != nil {
					b.Fatal(err)
				}
				// Heating from ambient: a rising jump that is never
				// committed, so every iteration plans the same one.
				for _, t := range h.ticks {
					if _, dir, err := ss.Jump(t, p); err != nil || dir != 1 {
						b.Fatalf("warm-up jump: dir %d, err %v", dir, err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := ss.Jump(h.ticks[i&1], p); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

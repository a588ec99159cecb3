package governor

import (
	"testing"

	"teem/internal/mapping"
	"teem/internal/sim"
	"teem/internal/soc"
	"teem/internal/thermal"
	"teem/internal/workload"
)

func baseConfig(g sim.Governor) sim.Config {
	return sim.Config{
		Platform: soc.Exynos5422(),
		Net:      thermal.Exynos5422Network(),
		App:      workload.Covariance(),
		Map:      mapping.Mapping{Big: 3, Little: 2, UseGPU: true},
		Part:     mapping.Partition{Num: 4, Den: 8},
		Governor: g,
	}
}

func TestNames(t *testing.T) {
	cases := []struct {
		g    sim.Governor
		want string
	}{
		{Performance{}, "performance"},
		{Powersave{}, "powersave"},
		{&Userspace{}, "userspace"},
		{NewOndemand(), "ondemand"},
		{NewConservative(), "conservative"},
	}
	for _, c := range cases {
		if got := c.g.Name(); got != c.want {
			t.Errorf("Name = %q, want %q", got, c.want)
		}
		if c.g.PeriodS() <= 0 {
			t.Errorf("%s: non-positive period", c.want)
		}
	}
}

func TestPerformancePinsMax(t *testing.T) {
	cfg := baseConfig(Performance{})
	cfg.DisableHWProtect = true
	e, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	ci := res.Trace.ClusterIndex("A15")
	for _, s := range res.Trace.Samples {
		if s.FreqsMHz[ci] != 2000 {
			t.Errorf("performance governor let frequency drop to %d", s.FreqsMHz[ci])
			break
		}
	}
}

func TestPowersavePinsMin(t *testing.T) {
	cfg := baseConfig(Powersave{})
	cfg.MaxTimeS = 5 // don't wait for a 200 MHz run to finish
	e, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	ci := res.Trace.ClusterIndex("A15")
	for _, s := range res.Trace.Samples {
		if s.FreqsMHz[ci] != 200 {
			t.Errorf("powersave governor at %d MHz", s.FreqsMHz[ci])
			break
		}
	}
}

func TestUserspaceHoldsRequestedFreqs(t *testing.T) {
	g := &Userspace{BigMHz: 1300, LittleMHz: 800, GPUMHz: 420}
	cfg := baseConfig(g)
	cfg.DisableHWProtect = true
	e, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	bi := res.Trace.ClusterIndex("A15")
	li := res.Trace.ClusterIndex("A7")
	gi := res.Trace.ClusterIndex("MaliT628")
	s := res.Trace.Samples[res.Trace.Len()/2]
	if s.FreqsMHz[bi] != 1300 || s.FreqsMHz[li] != 800 || s.FreqsMHz[gi] != 420 {
		t.Errorf("userspace freqs = %d/%d/%d, want 1300/800/420",
			s.FreqsMHz[bi], s.FreqsMHz[li], s.FreqsMHz[gi])
	}
}

func TestUserspaceZeroMeansMax(t *testing.T) {
	g := &Userspace{}
	cfg := baseConfig(g)
	cfg.DisableHWProtect = true
	e, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(e); err != nil {
		t.Fatal(err)
	}
	if f := e.ClusterFreqMHz("A15"); f != 2000 {
		t.Errorf("zero request pinned %d, want max 2000", f)
	}
}

// Ondemand under full load runs at max; with the thermal trip enabled the
// classic 2000↔900 sawtooth appears (paper Fig. 1a).
func TestOndemandSawtooth(t *testing.T) {
	cfg := baseConfig(NewOndemand())
	cfg.Map = mapping.Mapping{Big: 4, Little: 2, UseGPU: true} // hotter
	res, err := sim.RunWarm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ThrottleEvents == 0 {
		t.Fatal("expected hardware throttling under ondemand full load")
	}
	saw2000, saw900 := false, false
	ci := res.Trace.ClusterIndex("A15")
	for _, s := range res.Trace.Samples {
		switch s.FreqsMHz[ci] {
		case 2000:
			saw2000 = true
		case 900:
			saw900 = true
		}
	}
	if !saw2000 || !saw900 {
		t.Errorf("sawtooth incomplete: saw2000=%v saw900=%v", saw2000, saw900)
	}
}

func TestOndemandValidation(t *testing.T) {
	g := &Ondemand{UpThreshold: 2}
	cfg := baseConfig(g)
	e, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(e); err == nil {
		t.Error("UpThreshold > 1 should be rejected")
	}
}

func TestConservativeStepsUp(t *testing.T) {
	cfg := baseConfig(NewConservative())
	cfg.DisableHWProtect = true
	cfg.MaxTimeS = 30
	e, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Starting from min, under full load the governor must climb.
	ci := res.Trace.ClusterIndex("A15")
	first := res.Trace.Samples[0].FreqsMHz[ci]
	last := res.Trace.Samples[res.Trace.Len()-1].FreqsMHz[ci]
	if first > 400 {
		t.Errorf("conservative should start near min, got %d", first)
	}
	if last <= first {
		t.Errorf("conservative did not step up: %d → %d", first, last)
	}
}

// fakeMachine gives boundary tests exact control over the utilisation and
// frequency a governor observes, without running a simulation.
type fakeMachine struct {
	plat     *soc.Platform
	clusters map[string]*soc.Cluster
	freqs    map[string]int
	utils    map[string]float64
}

func newFakeMachine() *fakeMachine {
	p := soc.Exynos5422()
	f := &fakeMachine{plat: p, clusters: map[string]*soc.Cluster{}, freqs: map[string]int{}, utils: map[string]float64{}}
	for i := range p.Clusters {
		f.clusters[p.Clusters[i].Name] = &p.Clusters[i]
		f.freqs[p.Clusters[i].Name] = p.Clusters[i].MinFreqMHz()
	}
	return f
}

func (f *fakeMachine) TimeS() float64          { return 0 }
func (f *fakeMachine) Platform() *soc.Platform { return f.plat }
func (f *fakeMachine) SensorC(string) float64  { return 40 }
func (f *fakeMachine) ClusterFreqMHz(c string) int {
	return f.freqs[c]
}
func (f *fakeMachine) SetClusterFreqMHz(c string, mhz int) error {
	cl := f.clusters[c]
	if cl == nil {
		return nil
	}
	f.freqs[c] = cl.NearestOPP(mhz).FreqMHz
	return nil
}
func (f *fakeMachine) ClusterUtil(c string) float64 { return f.utils[c] }
func (f *fakeMachine) Throttled() bool              { return false }

// Conservative at the minimum OPP with idle load must hold the minimum —
// stepping "one OPP down" from the bottom of the table must not wrap,
// climb, or error.
func TestConservativeHoldsAtMinOPP(t *testing.T) {
	m := newFakeMachine()
	g := NewConservative()
	for i := range m.plat.Clusters {
		name := m.plat.Clusters[i].Name
		m.freqs[name] = m.plat.Clusters[i].MinFreqMHz()
		m.utils[name] = 0
	}
	if err := g.Act(m); err != nil {
		t.Fatal(err)
	}
	for i := range m.plat.Clusters {
		c := &m.plat.Clusters[i]
		if got := m.freqs[c.Name]; got != c.MinFreqMHz() {
			t.Errorf("%s: idle at min stepped to %d, want to hold %d", c.Name, got, c.MinFreqMHz())
		}
	}
}

// Conservative at the maximum OPP under full load must hold the maximum.
func TestConservativeHoldsAtMaxOPP(t *testing.T) {
	m := newFakeMachine()
	g := NewConservative()
	for i := range m.plat.Clusters {
		name := m.plat.Clusters[i].Name
		m.freqs[name] = m.plat.Clusters[i].MaxFreqMHz()
		m.utils[name] = 1
	}
	if err := g.Act(m); err != nil {
		t.Fatal(err)
	}
	for i := range m.plat.Clusters {
		c := &m.plat.Clusters[i]
		if got := m.freqs[c.Name]; got != c.MaxFreqMHz() {
			t.Errorf("%s: full load at max stepped to %d, want to hold %d", c.Name, got, c.MaxFreqMHz())
		}
	}
}

// Conservative inside the dead zone must not move at all.
func TestConservativeDeadZoneHolds(t *testing.T) {
	m := newFakeMachine()
	g := NewConservative()
	for i := range m.plat.Clusters {
		name := m.plat.Clusters[i].Name
		m.freqs[name] = 1000
		m.utils[name] = 0.5
	}
	before := map[string]int{}
	for k, v := range m.freqs {
		before[k] = v
	}
	if err := g.Act(m); err != nil {
		t.Fatal(err)
	}
	for k, v := range before {
		if m.freqs[k] != v {
			t.Errorf("%s: dead-zone util moved %d → %d", k, v, m.freqs[k])
		}
	}
}

// Ondemand with utilisation 0 must select each cluster's minimum OPP: the
// proportional law scales the target to zero and the OPP snap must land on
// the bottom of the table, not stay pinned at the current frequency.
func TestOndemandZeroUtilDropsToMin(t *testing.T) {
	m := newFakeMachine()
	g := NewOndemand()
	for i := range m.plat.Clusters {
		name := m.plat.Clusters[i].Name
		m.freqs[name] = m.plat.Clusters[i].MaxFreqMHz()
		m.utils[name] = 0
	}
	if err := g.Act(m); err != nil {
		t.Fatal(err)
	}
	for i := range m.plat.Clusters {
		c := &m.plat.Clusters[i]
		if got := m.freqs[c.Name]; got != c.MinFreqMHz() {
			t.Errorf("%s: util 0 selected %d MHz, want min %d", c.Name, got, c.MinFreqMHz())
		}
	}
}

// Ondemand exactly at the up-threshold must jump to maximum (the
// threshold is inclusive, matching the kernel's ≥ comparison).
func TestOndemandAtThresholdJumpsToMax(t *testing.T) {
	m := newFakeMachine()
	g := NewOndemand()
	for i := range m.plat.Clusters {
		name := m.plat.Clusters[i].Name
		m.freqs[name] = m.plat.Clusters[i].MinFreqMHz()
		m.utils[name] = g.UpThreshold
	}
	if err := g.Act(m); err != nil {
		t.Fatal(err)
	}
	for i := range m.plat.Clusters {
		c := &m.plat.Clusters[i]
		if got := m.freqs[c.Name]; got != c.MaxFreqMHz() {
			t.Errorf("%s: util at threshold selected %d MHz, want max %d", c.Name, got, c.MaxFreqMHz())
		}
	}
}

func TestConservativeValidation(t *testing.T) {
	g := &Conservative{UpThreshold: 0.2, DownThreshold: 0.8}
	cfg := baseConfig(g)
	e, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(e); err == nil {
		t.Error("inverted thresholds should be rejected")
	}
}

package soc

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestExynos5422Valid(t *testing.T) {
	p := Exynos5422()
	if err := p.Validate(); err != nil {
		t.Fatalf("Exynos5422 preset invalid: %v", err)
	}
}

func TestExynos5422OPPCounts(t *testing.T) {
	p := Exynos5422()
	// The paper: 19 big OPPs, 13 LITTLE OPPs, 7 GPU OPPs.
	cases := []struct {
		name string
		cl   *Cluster
		want int
	}{
		{"A15", p.Big(), 19},
		{"A7", p.Little(), 13},
		{"MaliT628", p.GPU(), 7},
	}
	for _, c := range cases {
		if c.cl == nil || c.cl.Name != c.name {
			t.Fatalf("cluster %s missing", c.name)
		}
		if got := c.cl.NumOPPs(); got != c.want {
			t.Errorf("%s: got %d OPPs, want %d", c.name, got, c.want)
		}
	}
}

func TestExynos5422FrequencyRanges(t *testing.T) {
	p := Exynos5422()
	big, little, gpu := p.Big(), p.Little(), p.GPU()
	if big == nil || little == nil || gpu == nil {
		t.Fatal("missing cluster kinds")
	}
	if big.MinFreqMHz() != 200 || big.MaxFreqMHz() != 2000 {
		t.Errorf("big range %d-%d, want 200-2000", big.MinFreqMHz(), big.MaxFreqMHz())
	}
	if little.MinFreqMHz() != 200 || little.MaxFreqMHz() != 1400 {
		t.Errorf("LITTLE range %d-%d, want 200-1400", little.MinFreqMHz(), little.MaxFreqMHz())
	}
	if gpu.MaxFreqMHz() != 600 {
		t.Errorf("GPU max %d, want 600", gpu.MaxFreqMHz())
	}
	if big.NumCores != 4 || little.NumCores != 4 || gpu.NumCores != 6 {
		t.Errorf("core counts big=%d LITTLE=%d GPU=%d, want 4/4/6",
			big.NumCores, little.NumCores, gpu.NumCores)
	}
}

func TestClusterKindString(t *testing.T) {
	cases := []struct {
		k    ClusterKind
		want string
	}{
		{BigCPU, "big"}, {LittleCPU, "LITTLE"}, {GPU, "GPU"}, {ClusterKind(9), "ClusterKind(9)"},
	}
	for _, c := range cases {
		if got := c.k.String(); got != c.want {
			t.Errorf("%v.String() = %q, want %q", int(c.k), got, c.want)
		}
	}
}

func TestOPPLookups(t *testing.T) {
	big := Exynos5422().Big()
	if i := big.OPPIndex(1400); i != 12 {
		t.Errorf("OPPIndex(1400) = %d, want 12", i)
	}
	if i := big.OPPIndex(1450); i != -1 {
		t.Errorf("OPPIndex(1450) = %d, want -1", i)
	}
	if f := big.NearestOPP(1449).FreqMHz; f != 1400 {
		t.Errorf("NearestOPP(1449) = %d, want 1400", f)
	}
	if f := big.NearestOPP(1451).FreqMHz; f != 1500 {
		t.Errorf("NearestOPP(1451) = %d, want 1500", f)
	}
	// Tie prefers the lower frequency.
	if f := big.NearestOPP(1450).FreqMHz; f != 1400 {
		t.Errorf("NearestOPP(1450) = %d, want 1400 (tie → lower)", f)
	}
	if f := big.FloorOPP(1999).FreqMHz; f != 1900 {
		t.Errorf("FloorOPP(1999) = %d, want 1900", f)
	}
	if f := big.FloorOPP(100).FreqMHz; f != 200 {
		t.Errorf("FloorOPP(100) = %d, want 200 (clamp)", f)
	}
	if f := big.CeilOPP(1999).FreqMHz; f != 2000 {
		t.Errorf("CeilOPP(1999) = %d, want 2000", f)
	}
	if f := big.CeilOPP(5000).FreqMHz; f != 2000 {
		t.Errorf("CeilOPP(5000) = %d, want 2000 (clamp)", f)
	}
}

func TestVoltageMonotonic(t *testing.T) {
	p := Exynos5422()
	for _, cl := range p.Clusters {
		prev := 0.0
		for _, opp := range cl.OPPs {
			if opp.VoltV < prev {
				t.Errorf("%s: voltage decreases at %d MHz", cl.Name, opp.FreqMHz)
			}
			prev = opp.VoltV
		}
	}
}

func TestVoltageAt(t *testing.T) {
	big := Exynos5422().Big()
	if v := big.VoltageAt(2000); v != 1.4250 {
		t.Errorf("VoltageAt(2000) = %g, want 1.4250", v)
	}
	// Snaps up: voltage for 1450 must cover 1500 MHz operation.
	if v1450, v1500 := big.VoltageAt(1450), big.VoltageAt(1500); v1450 != v1500 {
		t.Errorf("VoltageAt(1450)=%g should snap up to VoltageAt(1500)=%g", v1450, v1500)
	}
}

func TestPlatformAccessors(t *testing.T) {
	p := Exynos5422()
	if p.Big() != &p.Clusters[0] || p.Little() != &p.Clusters[1] || p.GPU() != &p.Clusters[2] {
		t.Error("Big, Little and GPU should return the A15, A7 and Mali clusters")
	}
	p.Clusters = p.Clusters[:2]
	if p.GPU() != nil {
		t.Error("GPU should return nil on a platform without one")
	}
}

func TestValidateRejectsBadClusters(t *testing.T) {
	mk := func(mut func(*Cluster)) *Cluster {
		c := Exynos5422().Big()
		cp := *c
		cp.OPPs = append([]OPP(nil), c.OPPs...)
		mut(&cp)
		return &cp
	}
	cases := []struct {
		name string
		c    *Cluster
	}{
		{"empty name", mk(func(c *Cluster) { c.Name = "" })},
		{"zero cores", mk(func(c *Cluster) { c.NumCores = 0 })},
		{"no OPPs", mk(func(c *Cluster) { c.OPPs = nil })},
		{"unsorted", mk(func(c *Cluster) { c.OPPs[0], c.OPPs[1] = c.OPPs[1], c.OPPs[0] })},
		{"dup freq", mk(func(c *Cluster) { c.OPPs[1].FreqMHz = c.OPPs[0].FreqMHz })},
		{"neg volt", mk(func(c *Cluster) { c.OPPs[0].VoltV = -1 })},
		{"zero freq", mk(func(c *Cluster) { c.OPPs[0].FreqMHz = 0 })},
		{"volt decreasing", mk(func(c *Cluster) { c.OPPs[1].VoltV = c.OPPs[0].VoltV - 0.1 })},
		{"zero cdyn", mk(func(c *Cluster) { c.CdynCoreNF = 0 })},
		{"neg leak", mk(func(c *Cluster) { c.LeakCoeff = -1 })},
	}
	for _, c := range cases {
		if err := c.c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid cluster", c.name)
		}
	}
}

func TestValidateRejectsBadPlatforms(t *testing.T) {
	mk := func(mut func(*Platform)) *Platform {
		p := Exynos5422()
		mut(p)
		return p
	}
	cases := []struct {
		name string
		p    *Platform
	}{
		{"empty name", mk(func(p *Platform) { p.Name = "" })},
		{"no clusters", mk(func(p *Platform) { p.Clusters = nil })},
		{"dup cluster", mk(func(p *Platform) { p.Clusters[1].Name = p.Clusters[0].Name })},
		{"trip below release", mk(func(p *Platform) { p.TripC = p.TripReleaseC - 1 })},
		{"neg baseline", mk(func(p *Platform) { p.BoardBaselineW = -1 })},
	}
	for _, c := range cases {
		if err := c.p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid platform", c.name)
		}
	}
}

// Every float of a platform must be finite. Before the check, a NaN trip
// ran with the TMU never firing, and the other values failed late in a
// run or ended it with a ±Inf peak. Each error names the cluster or OPP
// and the field.
func TestValidateRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		mut  func(p *Platform)
		want []string
	}{
		{"AmbientC NaN", func(p *Platform) { p.AmbientC = nan }, []string{"AmbientC"}},
		{"AmbientC +Inf", func(p *Platform) { p.AmbientC = inf }, []string{"AmbientC"}},
		{"TripC NaN", func(p *Platform) { p.TripC = nan }, []string{"TripC"}},
		{"TripC +Inf", func(p *Platform) { p.TripC = inf }, []string{"TripC"}},
		{"TripReleaseC -Inf", func(p *Platform) { p.TripReleaseC = -inf }, []string{"TripReleaseC"}},
		{"BoardBaselineW NaN", func(p *Platform) { p.BoardBaselineW = nan }, []string{"BoardBaselineW"}},
		{"DRAMPowerPerGBs +Inf", func(p *Platform) { p.DRAMPowerPerGBs = inf }, []string{"DRAMPowerPerGBs"}},
		{"CdynCoreNF NaN", func(p *Platform) { p.Clusters[0].CdynCoreNF = nan }, []string{"A15", "CdynCoreNF"}},
		{"CdynCoreNF +Inf", func(p *Platform) { p.Clusters[0].CdynCoreNF = inf }, []string{"A15", "CdynCoreNF"}},
		{"LeakCoeff NaN", func(p *Platform) { p.Clusters[1].LeakCoeff = nan }, []string{"A7", "LeakCoeff"}},
		{"LeakTempCoeff +Inf", func(p *Platform) { p.Clusters[2].LeakTempCoeff = inf }, []string{"MaliT628", "LeakTempCoeff"}},
		{"OPP VoltV NaN", func(p *Platform) { p.Clusters[0].OPPs[3].VoltV = nan }, []string{"A15", "OPP 3", "VoltV"}},
		{"top OPP VoltV +Inf", func(p *Platform) {
			c := &p.Clusters[1]
			c.OPPs[len(c.OPPs)-1].VoltV = inf
		}, []string{"A7", "VoltV"}},
	}
	for _, c := range cases {
		p := Exynos5422()
		c.mut(p)
		err := p.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted the platform", c.name)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not name %s", c.name, err, w)
			}
		}
	}
}

// Property: FloorOPP(f) ≤ f for any f at or above the minimum, and the
// result is always a supported OPP.
func TestFloorOPPProperty(t *testing.T) {
	big := Exynos5422().Big()
	f := func(raw int16) bool {
		req := int(raw)
		got := big.FloorOPP(req)
		if big.OPPIndex(got.FreqMHz) < 0 {
			return false
		}
		if req >= big.MinFreqMHz() && got.FreqMHz > req {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: CeilOPP(f) ≥ f for any f at or below the maximum.
func TestCeilOPPProperty(t *testing.T) {
	big := Exynos5422().Big()
	f := func(raw int16) bool {
		req := int(raw)
		got := big.CeilOPP(req)
		if big.OPPIndex(got.FreqMHz) < 0 {
			return false
		}
		if req <= big.MaxFreqMHz() && got.FreqMHz < req {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExynos5410Valid(t *testing.T) {
	p := Exynos5410()
	if err := p.Validate(); err != nil {
		t.Fatalf("Exynos5410 preset invalid: %v", err)
	}
	if p.Big().MaxFreqMHz() != 1600 || p.Little().MaxFreqMHz() != 1200 {
		t.Errorf("5410 CPU ranges wrong: big %d, LITTLE %d",
			p.Big().MaxFreqMHz(), p.Little().MaxFreqMHz())
	}
	if p.GPU().NumCores != 3 || p.GPU().MaxFreqMHz() != 533 {
		t.Errorf("5410 GPU wrong: %d cores @ %d", p.GPU().NumCores, p.GPU().MaxFreqMHz())
	}
	if p.TripC != 90 || p.TripCapMHz != 800 {
		t.Errorf("5410 trip config wrong: %g °C cap %d", p.TripC, p.TripCapMHz)
	}
}

func TestExynos5410DesignSpaceDiffers(t *testing.T) {
	// The design-space formulas must follow the platform: the 5410 has
	// 11 big OPPs, 11 LITTLE OPPs and 5 GPU OPPs.
	p := Exynos5410()
	fb := p.Big().NumOPPs()
	fl := p.Little().NumOPPs()
	fg := p.GPU().NumOPPs()
	if fb != 11 || fl != 11 || fg != 5 {
		t.Fatalf("OPP counts %d/%d/%d, want 11/11/5", fb, fl, fg)
	}
}

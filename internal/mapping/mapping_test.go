package mapping

import (
	"math"
	"testing"
	"testing/quick"

	"teem/internal/soc"
)

func TestCountCPUMappingsEq1(t *testing.T) {
	// Paper Eq. (1) on the Exynos 5422: 4 + 4 + 16 = 24.
	if got := CountCPUMappings(4, 4); got != 24 {
		t.Errorf("Eq. (1) = %d, want 24", got)
	}
	if got := len(CPUMappings(4, 4)); got != 24 {
		t.Errorf("enumerated %d mappings, want 24", got)
	}
}

func TestCPUMappingsContent(t *testing.T) {
	ms := CPUMappings(2, 2)
	want := map[string]bool{
		"0L+1B": true, "0L+2B": true, "1L+0B": true, "2L+0B": true,
		"1L+1B": true, "2L+1B": true, "1L+2B": true, "2L+2B": true,
	}
	if len(ms) != 8 {
		t.Fatalf("got %d mappings, want 8", len(ms))
	}
	for _, m := range ms {
		if !want[m.String()] {
			t.Errorf("unexpected mapping %s", m)
		}
		delete(want, m.String())
	}
	if len(want) != 0 {
		t.Errorf("missing mappings: %v", want)
	}
}

func TestMappingString(t *testing.T) {
	m := Mapping{Big: 3, Little: 2, UseGPU: true}
	if got := m.String(); got != "2L+3B+GPU" {
		t.Errorf("String = %q", got)
	}
	if m.CPUCores() != 5 {
		t.Errorf("CPUCores = %d, want 5", m.CPUCores())
	}
}

func TestMappingValidate(t *testing.T) {
	if err := (Mapping{Big: 2, Little: 2}).Validate(4, 4); err != nil {
		t.Errorf("valid mapping rejected: %v", err)
	}
	bad := []Mapping{
		{Big: 5, Little: 0, UseGPU: true},
		{Big: -1},
		{Little: 9},
		{}, // nothing selected
	}
	for i, m := range bad {
		if err := m.Validate(4, 4); err == nil {
			t.Errorf("case %d: accepted invalid mapping %+v", i, m)
		}
	}
	// GPU-only is legal.
	if err := (Mapping{UseGPU: true}).Validate(4, 4); err != nil {
		t.Errorf("GPU-only mapping rejected: %v", err)
	}
}

func TestPartitions(t *testing.T) {
	ps := Partitions()
	if len(ps) != NumPartitionGrains {
		t.Fatalf("got %d grains, want %d", len(ps), NumPartitionGrains)
	}
	if ps[0].CPUFrac() != 0 || ps[8].CPUFrac() != 1 {
		t.Error("grain endpoints wrong")
	}
	// The paper's grains: 0, 1/8, 1/4, 3/8, 1/2, 5/8, 3/4, 7/8, 1.
	for i, p := range ps {
		if err := p.Validate(); err != nil {
			t.Errorf("grain %d invalid: %v", i, err)
		}
		if want := float64(i) / 8; p.CPUFrac() != want {
			t.Errorf("grain %d = %g, want %g", i, p.CPUFrac(), want)
		}
	}
}

func TestPartitionCPUItems(t *testing.T) {
	// The paper's motivation case: partition 1024 of 2048 is the even
	// grain.
	p := Partition{Num: 4, Den: 8}
	if got := p.CPUItems(2048); got != 1024 {
		t.Errorf("CPUItems(2048) = %d, want 1024", got)
	}
	if got := (Partition{Num: 3, Den: 8}).CPUItems(2048); got != 768 {
		t.Errorf("3/8 of 2048 = %d, want 768", got)
	}
}

func TestPartitionValidate(t *testing.T) {
	bad := []Partition{{Num: 1, Den: 0}, {Num: -1, Den: 8}, {Num: 9, Den: 8}}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: accepted invalid partition %v", i, p)
		}
	}
}

func TestNearestPartition(t *testing.T) {
	cases := []struct {
		in   float64
		want int
	}{
		{0, 0}, {0.05, 0}, {0.07, 1}, {0.5, 4}, {0.93, 7}, {0.94, 8}, {1, 8},
		{-0.5, 0}, {1.5, 8},
	}
	for _, c := range cases {
		if got := NearestPartition(c.in); got.Num != c.want {
			t.Errorf("NearestPartition(%g) = %d/8, want %d/8", c.in, got.Num, c.want)
		}
	}
}

func TestMaxDesignPointsEq2(t *testing.T) {
	// Paper Eq. (2): {(4·19)+(4·13)+(4·19·4·13)} × {1·7} = 28 560.
	if got := MaxDesignPoints(4, 19, 4, 13, 7); got != 28560 {
		t.Errorf("Eq. (2) = %d, want 28560", got)
	}
}

func TestSpaceOnExynos(t *testing.T) {
	s, err := NewSpace(soc.Exynos5422())
	if err != nil {
		t.Fatal(err)
	}
	if got := s.CountCPUMappings(); got != 24 {
		t.Errorf("CountCPUMappings = %d, want 24", got)
	}
	if got := s.MaxDesignPoints(); got != 28560 {
		t.Errorf("MaxDesignPoints = %d, want 28560", got)
	}
	if got := s.TotalDesignPoints(); got != 257040 {
		t.Errorf("TotalDesignPoints = %d, want 257040", got)
	}
}

func TestNewSpaceRejectsPartialPlatforms(t *testing.T) {
	p := soc.Exynos5422()
	p.Clusters = p.Clusters[:2] // drop the GPU
	if _, err := NewSpace(p); err == nil {
		t.Error("NewSpace should require a GPU cluster")
	}
}

func TestEnumerateAllCountMatchesEq2(t *testing.T) {
	s, _ := NewSpace(soc.Exynos5422())
	n := 0
	s.EnumerateAll(func(DesignPoint) bool {
		n++
		return true
	})
	if n != s.TotalDesignPoints() {
		t.Errorf("enumerated %d points, want %d", n, s.TotalDesignPoints())
	}
}

// The shards must partition the enumeration exactly: disjoint, complete,
// and equal to EnumerateAll as a set whatever the shard count.
func TestEnumerateShardPartitionsSpace(t *testing.T) {
	s, _ := NewSpace(soc.Exynos5422())
	total := s.TotalDesignPoints()
	for _, shards := range []int{1, 2, 3, 8} {
		seen := make(map[DesignPoint]int, total)
		n := 0
		for shard := 0; shard < shards; shard++ {
			s.EnumerateShard(shard, shards, func(d DesignPoint) bool {
				seen[d]++
				n++
				return true
			})
		}
		if n != total {
			t.Errorf("%d shards enumerated %d points, want %d", shards, n, total)
		}
		for d, c := range seen {
			if c != 1 {
				t.Errorf("%d shards: point %v seen %d times", shards, d, c)
				break
			}
		}
	}
}

func TestEnumerateShardEarlyStop(t *testing.T) {
	s, _ := NewSpace(soc.Exynos5422())
	n := 0
	s.EnumerateShard(1, 4, func(DesignPoint) bool {
		n++
		return n < 50
	})
	if n != 50 {
		t.Errorf("early stop after %d points, want 50", n)
	}
}

func TestEnumerateShardOutOfRange(t *testing.T) {
	s, _ := NewSpace(soc.Exynos5422())
	for _, shard := range []int{-1, 4} {
		called := false
		s.EnumerateShard(shard, 4, func(DesignPoint) bool {
			called = true
			return true
		})
		if called {
			t.Errorf("shard %d of 4 should enumerate nothing", shard)
		}
	}
}

func TestEnumerateAllEarlyStop(t *testing.T) {
	s, _ := NewSpace(soc.Exynos5422())
	n := 0
	s.EnumerateAll(func(DesignPoint) bool {
		n++
		return n < 100
	})
	if n != 100 {
		t.Errorf("early stop after %d points, want 100", n)
	}
}

func TestEnumerateAllValidPoints(t *testing.T) {
	s, _ := NewSpace(soc.Exynos5422())
	n := 0
	s.EnumerateAll(func(d DesignPoint) bool {
		n++
		if n > 5000 {
			return false
		}
		if err := d.Map.Validate(4, 4); err != nil {
			t.Errorf("invalid mapping in enumeration: %v", err)
			return false
		}
		if err := d.Part.Validate(); err != nil {
			t.Errorf("invalid partition in enumeration: %v", err)
			return false
		}
		// GPU must be marked used exactly when some work-items go
		// to it.
		if d.Map.UseGPU != (d.Part.Num < d.Part.Den) {
			t.Errorf("UseGPU inconsistent with partition %v", d)
			return false
		}
		return true
	})
}

func TestDiverseSubsetCount(t *testing.T) {
	s, _ := NewSpace(soc.Exynos5422())
	sub := s.DiverseSubset()
	// The paper's 10 368 profiled design points.
	if len(sub) != 10368 {
		t.Errorf("diverse subset has %d points, want 10368", len(sub))
	}
	// All subset points use the GPU at max frequency.
	for _, d := range sub[:100] {
		if d.Freq.GPUMHz != 600 {
			t.Errorf("subset point GPU freq %d, want 600", d.Freq.GPUMHz)
			break
		}
	}
}

func TestMemoryAccounting(t *testing.T) {
	// §V.D: 2 items vs 128 items.
	if EEMPStoredItems() != 128 || TEEMStoredItems() != 2 {
		t.Errorf("items = %d vs %d, want 128 vs 2", EEMPStoredItems(), TEEMStoredItems())
	}
	// Byte saving ≈ 98.75 % (the paper rounds to 98.8 %).
	if got := MemorySavingFraction(); math.Abs(got-0.9875) > 0.001 {
		t.Errorf("byte saving = %.4f, want ≈0.9875", got)
	}
	// Abstract's claim: more than 90 % freed.
	if MemorySavingFraction() < 0.9 || ItemSavingFraction() < 0.9 {
		t.Error("memory saving should exceed 90%")
	}
	if got := ItemSavingFraction(); math.Abs(got-0.984375) > 1e-9 {
		t.Errorf("item saving = %g, want 126/128", got)
	}
}

func TestFreqSettingString(t *testing.T) {
	f := FreqSetting{BigMHz: 2000, LittleMHz: 1400, GPUMHz: 600}
	if got := f.String(); got != "B2000/L1400/G600" {
		t.Errorf("String = %q", got)
	}
	d := DesignPoint{Map: Mapping{Big: 3, Little: 2, UseGPU: true}, Freq: f, Part: Partition{4, 8}}
	if got := d.String(); got != "2L+3B+GPU @B2000/L1400/G600 part=4/8" {
		t.Errorf("DesignPoint.String = %q", got)
	}
}

// Property: NearestPartition is idempotent and never moves a grain.
func TestNearestPartitionProperty(t *testing.T) {
	f := func(raw float64) bool {
		x := math.Mod(math.Abs(raw), 1)
		p := NearestPartition(x)
		if p.Validate() != nil {
			return false
		}
		// Snapping a grain returns the same grain.
		q := NearestPartition(p.CPUFrac())
		if q != p {
			return false
		}
		// Snap distance is at most half a grain.
		return math.Abs(p.CPUFrac()-x) <= 1.0/16+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Eq. (1) and Eq. (2) counts agree with enumeration for small
// random platforms.
func TestCountsMatchEnumerationProperty(t *testing.T) {
	f := func(nbRaw, nlRaw uint8) bool {
		nb := 1 + int(nbRaw)%4
		nl := 1 + int(nlRaw)%4
		return len(CPUMappings(nb, nl)) == CountCPUMappings(nb, nl)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

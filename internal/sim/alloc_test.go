package sim

import (
	"testing"

	"teem/internal/mapping"
	"teem/internal/soc"
	"teem/internal/thermal"
	"teem/internal/workload"
)

// The steady-state simulation tick must not touch the heap: power
// evaluation, thermal stepping, metering and trace recording all reuse
// engine-owned buffers. This is the allocation-regression guard for the
// whole hot path; the sibling guards in internal/thermal pin the
// integrators on their own.
func TestTickZeroAllocs(t *testing.T) {
	e, err := New(Config{
		Platform: soc.Exynos5422(),
		Net:      thermal.Exynos5422Network(),
		App:      workload.Covariance(),
		Map:      mapping.Mapping{Big: 3, Little: 2, UseGPU: true},
		Part:     mapping.Partition{Num: 4, Den: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	const dt = 0.01
	e.govEvery = 0
	e.recEvery = 10
	// Warm up a few ticks: the lazily created first trace arena block may
	// allocate once.
	for i := 0; i < 50; i++ {
		if _, err := e.tick(dt); err != nil {
			t.Fatal(err)
		}
		e.timeTicks++
	}
	if avg := testing.AllocsPerRun(2000, func() {
		if _, err := e.tick(dt); err != nil {
			t.Fatal(err)
		}
		e.timeTicks++
	}); avg != 0 {
		t.Errorf("steady-state tick allocates %.3f objects/op, want 0", avg)
	}
}

// A scenario-driven engine — pending scheduled events, a queued arrival,
// an idle-capable horizon — must keep the steady-state tick between
// events allocation-free: event dispatch is a single integer compare on
// ticks with nothing due.
func TestTickZeroAllocsBetweenEvents(t *testing.T) {
	// An armed cancellation channel: the per-tick abort poll (a
	// non-blocking receive) must not cost an allocation either.
	done := make(chan struct{})
	defer close(done)
	e, err := New(Config{
		Platform: soc.Exynos5422(),
		Net:      thermal.Exynos5422Network(),
		App:      workload.Covariance(),
		Map:      mapping.Mapping{Big: 3, Little: 2, UseGPU: true},
		Part:     mapping.Partition{Num: 4, Den: 8},
		MinTimeS: 600,
		Done:     done,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A queued arrival, a suspended preemptee and far-future events: the
	// hot loop must not pay for any of them until they come due.
	if _, err := e.EnqueueAppPriority(workload.Syrk(), mapping.Partition{Num: 4, Den: 8}, 0); err != nil {
		t.Fatal(err)
	}
	// A high-priority arrival preempts the live COVARIANCE, parking it in
	// the queue: the steady tick with a suspended job pending must stay
	// allocation-free too.
	if _, err := e.EnqueueAppPriority(workload.Gemm(), mapping.Partition{Num: 4, Den: 8}, 2); err != nil {
		t.Fatal(err)
	}
	if err := e.ScheduleAt(500, func(e *Engine) error { e.SetAmbientC(43); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := e.ScheduleAt(550, func(e *Engine) error {
		return e.SetPartition(mapping.Partition{Num: 2, Den: 8})
	}); err != nil {
		t.Fatal(err)
	}
	const dt = 0.01
	e.govEvery = 0
	e.recEvery = 10
	for i := 0; i < 50; i++ {
		if _, err := e.tick(dt); err != nil {
			t.Fatal(err)
		}
		e.timeTicks++
	}
	if avg := testing.AllocsPerRun(2000, func() {
		if _, err := e.tick(dt); err != nil {
			t.Fatal(err)
		}
		e.timeTicks++
	}); avg != 0 {
		t.Errorf("tick between scenario events allocates %.3f objects/op, want 0", avg)
	}
}

// The warm walk must not touch the heap: like the ordinary tick it
// replaces, it only rewrites engine-owned buffers.
func TestSuperstepWalkZeroAllocs(t *testing.T) {
	done := make(chan struct{})
	defer close(done)
	e, err := New(Config{
		Platform: soc.Exynos5422(),
		Net:      thermal.Exynos5422Network(),
		Map:      mapping.Mapping{Big: 3, Little: 2, UseGPU: true},
		MinTimeS: 600,
		Governor: periodGov{p: 0.03},
		Done:     done,
	})
	if err != nil {
		t.Fatal(err)
	}
	const dt = 0.01
	e.govEvery = 3
	e.recEvery = 10
	const maxTicks, minTicks = 60_000, 60_000
	step := func() {
		advanced, err := e.superstep(dt, maxTicks, minTicks)
		if err != nil {
			t.Fatal(err)
		}
		if !advanced {
			if _, err := e.tick(dt); err != nil {
				t.Fatal(err)
			}
			e.timeTicks++
		}
	}
	// Warm up: the first ticks and the trace's first arena block.
	for i := 0; i < 300; i++ {
		step()
	}
	before := e.stats.WalkedTicks
	if avg := testing.AllocsPerRun(2000, step); avg != 0 {
		t.Errorf("warm walk allocates %.3f objects/op, want 0", avg)
	}
	if e.stats.WalkedTicks == before {
		t.Error("the measured steps walked no tick")
	}
}

// The warm segment path must not touch the heap: a chip held throttled
// (its trip lowered under its start, its release under ambient) has
// every span refused a jump and advanced in record segments, which only
// rewrite engine-owned and jump-map buffers.
func TestSuperstepSegmentZeroAllocs(t *testing.T) {
	done := make(chan struct{})
	defer close(done)
	plat, net := soc.Exynos5422(), thermal.Exynos5422Network()
	plat.TripC, plat.TripReleaseC = 30, 26
	temps := make([]float64, len(net.Nodes))
	for i := range temps {
		temps[i] = 40
	}
	e, err := New(Config{
		Platform:      plat,
		Net:           net,
		Map:           mapping.Mapping{Big: 3, Little: 2, UseGPU: true},
		InitialTempsC: temps,
		MinTimeS:      600,
		DiscardTrace:  true,
		Done:          done,
	})
	if err != nil {
		t.Fatal(err)
	}
	const dt = 0.01
	e.govEvery = 0
	e.recEvery = 10
	const maxTicks, minTicks = 50_000_000, 40_000_000
	step := func() {
		advanced, err := e.superstep(dt, maxTicks, minTicks)
		if err != nil {
			t.Fatal(err)
		}
		if !advanced {
			if _, err := e.tick(dt); err != nil {
				t.Fatal(err)
			}
			e.timeTicks++
		}
	}
	// Warm up: the first ticks, the trip and the jump map.
	for i := 0; i < 300; i++ {
		step()
	}
	if !e.throttled {
		t.Fatal("the chip is not throttled; its spans would be jumped")
	}
	before := e.stats.SegmentTicks
	if avg := testing.AllocsPerRun(2000, step); avg != 0 {
		t.Errorf("warm segment path allocates %.3f objects/op, want 0", avg)
	}
	if e.stats.SegmentTicks == before {
		t.Error("the measured steps advanced no tick in a segment")
	}
}

// The engine keeps one jump map and rebinds it in place: cycling one
// engine through more big-cluster voltages than a pool of eight maps
// could hold rebinds that map on every binding, and once every shared
// form exists a binding allocates nothing.
func TestSuperstepRebindZeroAllocs(t *testing.T) {
	e, err := New(Config{
		Platform: soc.Exynos5422(),
		Net:      thermal.Exynos5422Network(),
		Map:      mapping.Mapping{Big: 3, Little: 2, UseGPU: true},
		MinTimeS: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Big-cluster frequencies with distinct voltages: each has its own
	// leakage slope, hence its own modal form.
	var freqs []int
	lastV := -1.0
	for _, o := range e.plat.Clusters[e.bigIdx].OPPs {
		if o.VoltV != lastV {
			freqs, lastV = append(freqs, o.FreqMHz), o.VoltV
		}
	}
	if len(freqs) <= 8 {
		t.Fatalf("%d distinct big-cluster voltages, want more than 8", len(freqs))
	}
	i := 0
	bind := func() {
		e.setFreq(e.bigIdx, freqs[i%len(freqs)])
		i++
		if ok, err := e.bindJumpMap(steadyOp{}); err != nil || !ok {
			t.Fatalf("binding %d: ok %v, err %v", i, ok, err)
		}
	}
	for range 2 * len(freqs) {
		bind()
	}
	ss, hits, misses := e.ss, e.stats.PoolHits, e.stats.PoolMisses
	if avg := testing.AllocsPerRun(100, bind); avg != 0 {
		t.Errorf("rebinding the jump map allocates %.3f objects/op, want 0", avg)
	}
	if e.ss != ss || e.stats.PoolHits != hits || e.stats.PoolMisses-misses < 100 {
		t.Errorf("%d hits and %d rebinds measured, map replaced %v; want the one map rebound on every binding",
			e.stats.PoolHits-hits, e.stats.PoolMisses-misses, e.ss != ss)
	}
}

// The Euler reference integrator path must stay allocation-free too.
func TestTickZeroAllocsEulerIntegrator(t *testing.T) {
	e, err := New(Config{
		Platform:   soc.Exynos5422(),
		Net:        thermal.Exynos5422Network(),
		App:        workload.Covariance(),
		Map:        mapping.Mapping{Big: 3, Little: 2, UseGPU: true},
		Part:       mapping.Partition{Num: 4, Den: 8},
		Integrator: IntegratorEuler,
	})
	if err != nil {
		t.Fatal(err)
	}
	const dt = 0.01
	e.govEvery = 0
	e.recEvery = 10
	for i := 0; i < 50; i++ {
		if _, err := e.tick(dt); err != nil {
			t.Fatal(err)
		}
		e.timeTicks++
	}
	if avg := testing.AllocsPerRun(2000, func() {
		if _, err := e.tick(dt); err != nil {
			t.Fatal(err)
		}
		e.timeTicks++
	}); avg != 0 {
		t.Errorf("steady-state Euler tick allocates %.3f objects/op, want 0", avg)
	}
}

// The steady-regime protocol allocates what its runs record, not what
// their time budget could hold: one RunWarm of the Fig. 1 configuration
// must stay under a fixed byte budget, so a buffer presized for the
// 900 s MaxTimeS (~480 KB per RunWarm) cannot return unnoticed.
func TestRunWarmAllocBudget(t *testing.T) {
	const budget = 160 << 10
	if got := testing.Benchmark(BenchmarkRunWarmCovariance).AllocedBytesPerOp(); got > budget {
		t.Errorf("RunWarm allocates %d B/op, budget %d B", got, budget)
	}
}

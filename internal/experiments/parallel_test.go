package experiments

import (
	"sync"
	"testing"

	"teem/internal/workload"
)

// Determinism: the parallel engine must produce byte-identical output to
// the serial path, whatever the worker count. Rendered strings are the
// strictest practical comparison — they embed every formatted metric.
func TestParallelOutputMatchesSerial(t *testing.T) {
	serial, err := NewEnvWith(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewEnvWith(Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}

	check := func(name, a, b string) {
		t.Helper()
		if a != b {
			t.Errorf("%s: parallel output differs from serial", name)
		}
	}

	// Fig. 1 — the two governor runs fan out.
	f1s, err := serial.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	f1p, err := parallel.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	check("fig1", f1s.Render(), f1p.Render())

	// Fig. 5 — the eight application rows fan out.
	f5s, err := serial.Fig5(fig5Mapping)
	if err != nil {
		t.Fatal(err)
	}
	f5p, err := parallel.Fig5(fig5Mapping)
	if err != nil {
		t.Fatal(err)
	}
	check("fig5 energy", f5s.RenderEnergy(), f5p.RenderEnergy())
	check("fig5 temperature", f5s.RenderTemperature(), f5p.RenderTemperature())
	check("fig5 performance", f5s.RenderPerformance(), f5p.RenderPerformance())

	// Ablation sweeps — the points fan out.
	ths, err := serial.ThresholdSweep([]float64{80, 85, 90})
	if err != nil {
		t.Fatal(err)
	}
	thp, err := parallel.ThresholdSweep([]float64{80, 85, 90})
	if err != nil {
		t.Fatal(err)
	}
	check("threshold sweep", RenderSweep("t", "v", ths), RenderSweep("t", "v", thp))

	ds, err := serial.DeltaSweep([]int{100, 200, 400})
	if err != nil {
		t.Fatal(err)
	}
	dp, err := parallel.DeltaSweep([]int{100, 200, 400})
	if err != nil {
		t.Fatal(err)
	}
	check("delta sweep", RenderSweep("d", "v", ds), RenderSweep("d", "v", dp))

	fs, err := serial.FloorSweep([]int{1000, 1400, 1800})
	if err != nil {
		t.Fatal(err)
	}
	fp, err := parallel.FloorSweep([]int{1000, 1400, 1800})
	if err != nil {
		t.Fatal(err)
	}
	check("floor sweep", RenderSweep("f", "v", fs), RenderSweep("f", "v", fp))

	// Design space — the enumeration cross-check shards across workers.
	sps, err := serial.DesignSpace()
	if err != nil {
		t.Fatal(err)
	}
	spp, err := parallel.DesignSpace()
	if err != nil {
		t.Fatal(err)
	}
	if sps != spp {
		t.Errorf("design space: serial %+v vs parallel %+v", sps, spp)
	}
	check("design space render", sps.Render(), spp.Render())
}

// Single-flight: concurrent profiling of the same app runs one offline
// phase whose model every caller shares.
func TestProfileSingleFlight(t *testing.T) {
	e, err := NewEnvWith(Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	app := workload.Covariance()
	const callers = 8
	models := make([]*ModelResult, callers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			models[i], errs[i] = e.ProfileApp(app.Name)
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if models[i].Model != models[0].Model {
			t.Errorf("caller %d got a different model pointer — profiling ran more than once", i)
		}
	}
}

// Concurrency hammer: drive every Env entry point from concurrent
// goroutines. Run under -race (the CI race job does), this proves the
// engine has no data races; the assertions prove the shared caches
// single-flight rather than duplicate.
func TestEnvConcurrentHammer(t *testing.T) {
	e, err := NewEnvWith(Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	do := func(fn func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fn(); err != nil {
				fail(err)
			}
		}()
	}

	fig5s := make([]*Fig5Result, 4)
	for i := 0; i < 4; i++ {
		i := i
		do(func() error {
			r, err := e.Fig5(fig5Mapping)
			fig5s[i] = r
			return err
		})
	}
	for i := 0; i < 2; i++ {
		do(func() error {
			_, err := e.ProfileApp("COVARIANCE")
			return err
		})
		do(func() error {
			_, err := e.ThresholdSweep([]float64{85})
			return err
		})
		do(func() error {
			_, err := e.DesignSpace()
			return err
		})
		do(func() error {
			e.Memory()
			return nil
		})
		do(func() error {
			_, err := e.Fig1()
			return err
		})
	}
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	for i := 1; i < len(fig5s); i++ {
		if fig5s[i] != fig5s[0] {
			t.Error("concurrent Fig5 callers should share one cached result")
		}
	}
}

package sim

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"teem/internal/soc"
	"teem/internal/thermal"
)

// runResult builds and runs one engine, with the cache counters cleared:
// they say which engines ran before it, not what it computed.
func runResult(t *testing.T, cfg Config) *Result {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return runEngine(t, e)
}

func runEngine(t *testing.T, e *Engine) *Result {
	t.Helper()
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	clearCacheCounters(res)
	return res
}

func clearCacheCounters(res *Result) {
	res.Stats.PropCacheHits, res.Stats.PropCacheMisses = 0, 0
	res.Stats.JumpBlockHits, res.Stats.JumpBlockMisses = 0, 0
}

// mutateHardware lowers the trip point, raises the big cluster's top OPP
// voltage and worsens the package-to-ambient path.
func mutateHardware(p *soc.Platform, n *thermal.Network) {
	p.TripC -= 5
	big := p.Big()
	big.OPPs[len(big.OPPs)-1].VoltV += 0.05
	n.Links[3].ResCW *= 1.3
}

// An engine is built from the platform and network as they are when New
// runs: mutating the caller's values afterwards changes neither an engine
// built before (whose shared state points only at the cache's private
// copies) nor the next engine's view of the new values.
func TestSystemCacheSeesMutation(t *testing.T) {
	cfg := baseConfig()
	first := runResult(t, cfg)
	before, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	mutateHardware(cfg.Platform, cfg.Net)
	mutated := runResult(t, cfg)
	fresh := baseConfig()
	mutateHardware(fresh.Platform, fresh.Net)
	if want := runResult(t, fresh); !reflect.DeepEqual(mutated, want) {
		t.Errorf("engine on mutated values differs from one on fresh copies of them:\n got %+v\nwant %+v", mutated, want)
	}
	if mutated.ThrottleEvents == first.ThrottleEvents && mutated.EnergyJ == first.EnergyJ {
		t.Fatal("the mutation changed nothing; the test would pass on a stale cache")
	}
	if got := runEngine(t, before); !reflect.DeepEqual(got, first) {
		t.Errorf("engine built before the mutation saw it:\n got %+v\nwant %+v", got, first)
	}
}

// Engines for one system built and run from many goroutines at once —
// racing to compile, admit and take its propagator — all compute the
// same result.
func TestSystemCacheConcurrentBuilds(t *testing.T) {
	const workers = 8
	results := make([]*Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := baseConfig()
			cfg.Platform.Name = "concurrent-builds"
			e, err := New(cfg)
			if err != nil {
				errs[w] = err
				return
			}
			res, err := e.Run()
			if err != nil {
				errs[w] = err
				return
			}
			clearCacheCounters(res)
			results[w] = res
		}()
	}
	wg.Wait()
	for w := range workers {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if !reflect.DeepEqual(results[w], results[0]) {
			t.Errorf("worker %d computed another result:\n got %+v\nwant %+v", w, results[w], results[0])
		}
	}
}

// More distinct systems than the cache admits still build and run
// alike; the cache stops admitting at its bound.
func TestSystemCacheBound(t *testing.T) {
	saved := systems
	systems = new(systemCache)
	t.Cleanup(func() { systems = saved })

	var want *Result
	for i := range systemCacheLimit + 3 {
		cfg := baseConfig()
		cfg.Platform.Name = fmt.Sprintf("bound-%d", i)
		res := runResult(t, cfg)
		if want == nil {
			want = res
		} else if !reflect.DeepEqual(res, want) {
			t.Fatalf("system %d computed another result", i)
		}
		key := appendKey(nil, cfg.Platform, cfg.Net)
		cached := systems.lookup(hashKey(key), key) != nil
		if cached != (i < systemCacheLimit) {
			t.Errorf("system %d: cached %v with the bound at %d", i, cached, systemCacheLimit)
		}
	}
	systems.mu.Lock()
	defer systems.mu.Unlock()
	if systems.count != systemCacheLimit {
		t.Errorf("cache holds %d systems, want %d", systems.count, systemCacheLimit)
	}
}

// leaves calls f on every number and string reachable from v, in order.
func leaves(t *testing.T, v reflect.Value, f func(reflect.Value)) {
	switch v.Kind() {
	case reflect.Pointer:
		leaves(t, v.Elem(), f)
	case reflect.Struct:
		for i := range v.NumField() {
			leaves(t, v.Field(i), f)
		}
	case reflect.Slice:
		for i := range v.Len() {
			leaves(t, v.Index(i), f)
		}
	case reflect.String, reflect.Int, reflect.Float64:
		f(v)
	default:
		t.Fatalf("no rule to perturb a %s field", v.Type())
	}
}

// Changing any single field of a platform or network, one at a time,
// changes the content key and its hash, so a new field nobody added to
// the key fails here.
func TestSystemKeyCoversEveryField(t *testing.T) {
	p0, n0 := soc.Exynos5422(), thermal.Exynos5422Network()
	k0 := appendKey(nil, p0, n0)
	if !slices.Equal(k0, appendKey(nil, soc.Exynos5422(), thermal.Exynos5422Network())) {
		t.Fatal("equal values have different keys")
	}
	count := 0
	leaves(t, reflect.ValueOf(struct {
		P *soc.Platform
		N *thermal.Network
	}{p0, n0}), func(reflect.Value) { count++ })
	for k := range count {
		p, n := soc.Exynos5422(), thermal.Exynos5422Network()
		i, name := 0, ""
		leaves(t, reflect.ValueOf(struct {
			P *soc.Platform
			N *thermal.Network
		}{p, n}), func(v reflect.Value) {
			if i == k {
				name = fmt.Sprintf("leaf %d (%s %v)", k, v.Type(), v)
				switch v.Kind() {
				case reflect.String:
					v.SetString(v.String() + "x")
				case reflect.Int:
					v.SetInt(v.Int() + 1)
				case reflect.Float64:
					v.SetFloat(math.Nextafter(v.Float(), math.Inf(1)))
				}
			}
			i++
		})
		k := appendKey(nil, p, n)
		if slices.Equal(k, k0) {
			t.Errorf("%s: the key misses it", name)
		}
		if hashKey(k) == hashKey(k0) {
			t.Errorf("%s: the hash misses it", name)
		}
	}
}

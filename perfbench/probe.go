package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"teem/internal/mapping"
	"teem/internal/platform"
	"teem/internal/power"
	"teem/internal/scenario"
	"teem/internal/sim"
	"teem/internal/thermal"
)

// defaultMap is the paper's 2L+4B+GPU mapping, valid on every catalog
// platform (the preset corpus runs it on all of them).
var defaultMap = mapping.Mapping{Big: 4, Little: 2, UseGPU: true}

// probeReps is how many timed batches a microbenchmark probe runs; the
// reported cost is the median batch's per-call time.
const probeReps = 5

// perCall times fn over probeReps batches of n calls and returns the
// median per-call time.
func perCall(n int, fn func() error) (time.Duration, error) {
	var per []float64
	for r := 0; r < probeReps; r++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		per = append(per, float64(time.Since(t0))/float64(n))
	}
	return time.Duration(newDist(per).median()), nil
}

// substrateProbes time single calls into the engine's substrate and
// per-cell set-up layers, on every catalog platform: thermal stepping,
// superstep jumps, power evaluation, catalog decode, engine construction
// and the fixed cost of a one-tick scenario. They run in every traced
// run and measure the same work whatever the workload.
func substrateProbes(ls *layerSet) error {
	names := platform.Names()
	var step, jump, eval, get, newEng, fixed []float64
	// A scenario needs an arrival; departing it on the next tick keeps
	// the run to a couple of ticks, so its cost is the fixed part:
	// validation, catalog decode, engine construction and compilation.
	one, err := scenario.New("fixed-cost").ArriveDefault(0, "MVT").Depart(0.01, "MVT").Horizon(0.01).Build()
	if err != nil {
		return err
	}
	for _, name := range names {
		b, err := platform.Get(name)
		if err != nil {
			return err
		}
		m, err := thermal.NewModel(b.Net, b.SoC.AmbientC)
		if err != nil {
			return err
		}
		st, err := m.NewStepper(0.01)
		if err != nil {
			return err
		}
		pw := make([]float64, len(b.Net.Nodes))
		for i := range pw {
			pw[i] = 0.5
		}
		d, err := perCall(20000, func() error { return st.Step(pw) })
		if err != nil {
			return err
		}
		step = append(step, float64(d))

		ss, err := thermal.NewSuperstep(st, make([]float64, len(pw)))
		if err != nil {
			return err
		}
		d, err = perCall(5000, func() error { _, _, err := ss.Jump(100, pw); return err })
		if err != nil {
			return err
		}
		jump = append(jump, float64(d))

		pm, err := power.NewModel(b.SoC)
		if err != nil {
			return err
		}
		loads := power.IdleLoads(b.SoC, 60)
		for i := range loads {
			c := &b.SoC.Clusters[i]
			loads[i].FreqMHz, loads[i].ActiveCores, loads[i].Utilization, loads[i].Activity =
				c.MaxFreqMHz(), c.NumCores, 1, 0.7
		}
		var bd power.Breakdown
		d, err = perCall(20000, func() error { return pm.EvaluateInto(&bd, loads, 1) })
		if err != nil {
			return err
		}
		eval = append(eval, float64(d))

		d, err = perCall(50, func() error { _, err := platform.Get(name); return err })
		if err != nil {
			return err
		}
		get = append(get, float64(d))

		d, err = perCall(200, func() error {
			_, err := sim.New(sim.Config{Platform: b.SoC, Net: b.Net, MinTimeS: 1, Map: defaultMap})
			return err
		})
		if err != nil {
			return err
		}
		newEng = append(newEng, float64(d))

		d, err = perCall(50, func() error {
			_, err := scenario.Run(one, scenario.Config{PlatformName: name})
			return err
		})
		if err != nil {
			return err
		}
		fixed = append(fixed, float64(d))
	}
	note := fmt.Sprintf("probe: mean over %d catalog platforms", len(names))
	ls.set("thermal.step_ns", "ns", newDist(step).mean(), note)
	ls.set("thermal.jump_ns", "ns", newDist(jump).mean(), note+", 100-tick jump")
	ls.set("power.eval_ns", "ns", newDist(eval).mean(), note)
	ls.set("platform.get_us", "us", newDist(get).mean()/1e3, note)
	ls.set("sim.new_us", "us", newDist(newEng).mean()/1e3, note)
	ls.set("scenario.fixed_cost_us", "us", newDist(fixed).mean()/1e3, note+", one-tick horizon")

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, name := range names {
		if _, err := platform.Get(name); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&m1)
	ls.set("platform.get_allocs", "count", float64(m1.Mallocs-m0.Mallocs)/float64(len(names)), note)

	return normalizeProbe(ls, scenario.Presets(), "probe: preset corpus")
}

// normalizeProbe times the scenario encode and decode the daemon's
// request normalization performs — decoding a scenario document and
// re-encoding it canonically for the request hash — on the given
// scenarios.
func normalizeProbe(ls *layerSet, scs []*scenario.Scenario, source string) error {
	docs := make([][]byte, len(scs))
	for i, sc := range scs {
		var b bytes.Buffer
		if err := sc.Save(&b); err != nil {
			return err
		}
		docs[i] = b.Bytes()
	}
	i := 0
	load, err := perCall(len(docs)*4, func() error {
		_, err := scenario.Load(bytes.NewReader(docs[i%len(docs)]))
		i++
		return err
	})
	if err != nil {
		return err
	}
	var b bytes.Buffer
	save, err := perCall(len(scs)*4, func() error {
		b.Reset()
		err := scs[i%len(scs)].Save(&b)
		i++
		return err
	})
	if err != nil {
		return err
	}
	note := fmt.Sprintf("%s, %d scenarios", source, len(scs))
	ls.set("scenario.load_us", "us", float64(load)/1e3, note)
	ls.set("scenario.save_us", "us", float64(save)/1e3, note)
	return nil
}

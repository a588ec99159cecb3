package sim

import (
	"errors"
	"testing"

	"teem/internal/mapping"
	"teem/internal/soc"
	"teem/internal/thermal"
	"teem/internal/trace"
	"teem/internal/workload"
)

func cancelTestConfig() Config {
	return Config{
		Platform: soc.Exynos5422(),
		Net:      thermal.Exynos5422Network(),
		App:      workload.Covariance(),
		Map:      mapping.Mapping{Big: 3, Little: 2, UseGPU: true},
		Part:     mapping.Partition{Num: 4, Den: 8},
	}
}

// Closing Done before Run starts must abort on the very first tick.
func TestRunAbortsOnClosedDone(t *testing.T) {
	done := make(chan struct{})
	close(done)
	cfg := cancelTestConfig()
	cfg.Done = done
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if res != nil {
		t.Fatalf("aborted run returned a result: %+v", res)
	}
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("got %v, want ErrAborted", err)
	}
}

// An abort raised mid-run must be observed within one tick: a scheduled
// event closes Done at t=1s and the reported abort time must be the next
// tick, not the end of the workload.
func TestRunAbortsWithinOneTick(t *testing.T) {
	done := make(chan struct{})
	cfg := cancelTestConfig()
	cfg.Done = done
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ScheduleAt(1.0, func(e *Engine) error { close(done); return nil }); err != nil {
		t.Fatal(err)
	}
	_, err = e.Run()
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("got %v, want ErrAborted", err)
	}
	// The event fires at tick 100 (t=1s); the poll at the top of tick
	// 101 must catch it, so the engine stops at t=1.01s (default 10 ms
	// tick) — within one tick of the cancellation.
	if got := e.TimeS(); got > 1.0+2*0.01+1e-9 {
		t.Errorf("abort observed at t=%gs, want within one tick of 1s", got)
	}
}

// A nil Done keeps the classic behaviour: the run completes.
func TestRunWithoutDoneCompletes(t *testing.T) {
	e, err := New(cancelTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Error("run did not complete")
	}
}

// The OnSample subscriber must see every recorded sample, in time order,
// with the same values the final trace holds — live streaming equals the
// post-hoc trace, with no whole-run copy.
func TestOnSampleMatchesTrace(t *testing.T) {
	var streamed []trace.Sample
	cfg := cancelTestConfig()
	cfg.OnSample = func(s trace.Sample) { streamed = append(streamed, s) }
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(res.Trace.Samples) {
		t.Fatalf("streamed %d samples, trace has %d", len(streamed), len(res.Trace.Samples))
	}
	for i, s := range streamed {
		ts := res.Trace.Samples[i]
		if s.TimeS != ts.TimeS || s.PowerW != ts.PowerW {
			t.Fatalf("sample %d: streamed (t=%g, P=%g) != trace (t=%g, P=%g)",
				i, s.TimeS, s.PowerW, ts.TimeS, ts.PowerW)
		}
		for k := range s.TempsC {
			if s.TempsC[k] != ts.TempsC[k] {
				t.Fatalf("sample %d node %d: streamed %g != trace %g", i, k, s.TempsC[k], ts.TempsC[k])
			}
		}
		for k := range s.FreqsMHz {
			if s.FreqsMHz[k] != ts.FreqsMHz[k] {
				t.Fatalf("sample %d cluster %d: streamed %d != trace %d", i, k, s.FreqsMHz[k], ts.FreqsMHz[k])
			}
		}
	}
}

// Samples handed to the subscriber must stay valid after the run: they
// are arena-backed trace storage, not reused scratch buffers.
func TestOnSampleSlicesStayValid(t *testing.T) {
	type snap struct {
		t     float64
		temp0 float64
		s     trace.Sample
	}
	var snaps []snap
	cfg := cancelTestConfig()
	cfg.OnSample = func(s trace.Sample) {
		snaps = append(snaps, snap{t: s.TimeS, temp0: s.TempsC[0], s: s})
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, sn := range snaps {
		if sn.s.TimeS != sn.t || sn.s.TempsC[0] != sn.temp0 {
			t.Fatalf("sample %d mutated after delivery: (t=%g, T=%g) now (t=%g, T=%g)",
				i, sn.t, sn.temp0, sn.s.TimeS, sn.s.TempsC[0])
		}
	}
}

// A segmented span crosses meter instants now, so it polls cancellation
// at each of them: an abort raised from OnSample during a long throttled
// stretch (the trip lowered under the chip's start, the release under
// ambient, so every span is refused a jump and advanced in record
// segments) is observed within one meter period of simulated time.
func TestRunAbortsWithinOneMeterPeriodOfSegments(t *testing.T) {
	done := make(chan struct{})
	plat, net := soc.Exynos5422(), thermal.Exynos5422Network()
	plat.TripC, plat.TripReleaseC = 30, 26
	temps := make([]float64, len(net.Nodes))
	for i := range temps {
		temps[i] = 40
	}
	const closeAtS = 20.05
	closedAt := -1.0
	e, err := New(Config{
		Platform:      plat,
		Net:           net,
		Map:           mapping.Mapping{Big: 3, Little: 2, UseGPU: true},
		InitialTempsC: temps,
		MinTimeS:      600,
		Done:          done,
		OnSample: func(s trace.Sample) {
			if closedAt < 0 && s.TimeS >= closeAtS {
				closedAt = s.TimeS
				close(done)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); !errors.Is(err, ErrAborted) {
		t.Fatalf("got %v, want ErrAborted", err)
	}
	if closedAt < 0 {
		t.Fatal("Done was never closed")
	}
	if e.stats.SegmentTicks == 0 || e.stats.TMUTrips != 1 {
		t.Fatalf("want a throttled run advanced in segments, got %+v", e.stats)
	}
	if got := e.TimeS(); got > closedAt+e.meter.PeriodS+1e-9 {
		t.Errorf("abort observed at t=%gs, want within one meter period of %gs", got, closedAt)
	}
}

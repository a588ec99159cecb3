package sim

import (
	"errors"

	"teem/internal/obs"
)

// WalkRun runs e to maxTimeS seconds like Run, but walks every proven
// horizon (walkTicks) — no jumps and no record segments — so
// BenchmarkSteadyWalk times walked ticks on a configuration whose spans
// Run would advance in segments. It serves a run with no governor and no
// scheduled event whose job outlasts maxTimeS, and returns the flight
// recorder.
func WalkRun(e *Engine, maxTimeS float64) (obs.RunStats, error) {
	if e.cfg.Governor != nil || len(e.events) > 0 {
		return e.stats, errors.New("sim: WalkRun takes no governor and no scheduled event")
	}
	dt := TickS
	e.recEvery = int(recordPeriodS/dt + 0.5)
	maxTicks := int(maxTimeS/dt + 0.5)
	for e.timeTicks < maxTicks {
		_, n, op, _ := e.horizon(dt, maxTicks, maxTicks)
		if n >= 1 && !e.tmuFires() {
			var leak steadyLeak
			if err := e.steadyPower(&op, &leak); err != nil {
				return e.stats, err
			}
			if err := e.walkTicks(dt, n, &op, &leak); err != nil {
				return e.stats, err
			}
			continue
		}
		finishedAt, err := e.tick(dt)
		if err != nil {
			return e.stats, err
		}
		if finishedAt >= 0 {
			return e.stats, errors.New("sim: WalkRun's job finished")
		}
		e.timeTicks++
	}
	return e.stats, nil
}

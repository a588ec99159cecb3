// Event-horizon superstepping: the engine's fast path across provably
// steady intervals. When nothing that could change the operating point is
// pending — no scheduled event, no governor decision that could move a
// frequency, no hardware-protection interaction, no work-chunk depletion,
// no meter sampling instant — the per-tick recurrence is a fixed affine
// map of the temperature vector, and the engine replays n ticks of it in
// one application of a precomputed (Ãⁿ, Sₙ) pair (thermal.Superstep).
// The jump reproduces the fixed-tick trajectory to floating-point
// rounding; every guard here is about proving the interval really is
// steady, with a conservative fall-through to the ordinary tick whenever
// it is not.

package sim

import (
	"fmt"

	"teem/internal/power"
	"teem/internal/thermal"
)

// UtilOnlyGovernor is an optional marker interface for Governor
// implementations whose Act is a pure function of the cluster
// utilisations and current frequencies — no sensor reads, no time, no
// internal state. For such a policy an epoch that changed nothing is a
// fixed point: as long as utilisations and frequencies stay constant,
// every further epoch is provably a no-op, so the engine may jump across
// control periods instead of replaying them. All stock Linux baselines in
// internal/governor qualify; the TEEM controller does not (it reads
// thermal sensors), so its epochs always bound a superstep. Implement
// UtilOnly to return true only if the policy honours this contract —
// a policy that reads anything else must not be marked, or supersteps
// will skip decisions it would have made.
type UtilOnlyGovernor interface {
	Governor
	// UtilOnly reports that Act depends only on ClusterUtil and
	// ClusterFreqMHz.
	UtilOnly() bool
}

// govIsPure reports whether g is marked util-only.
func govIsPure(g Governor) bool {
	u, ok := g.(UtilOnlyGovernor)
	return ok && u.UtilOnly()
}

// superstepMinSpan is the smallest jump worth planning: below this the
// affine setup costs more than the ticks it would replace.
const superstepMinSpan = 4

// ssPoolLimit bounds the per-engine recency pool of slope-keyed jump
// maps; a run alternating between a handful of operating points keeps
// them all warm.
const ssPoolLimit = 8

// drained reports that no workload activity remains: no live job, no
// queued job, no undelivered scheduled event.
func (e *Engine) drained() bool {
	return e.app == nil && e.QueuedJobs() == 0 && e.evIdx >= len(e.events)
}

// superstep attempts to jump the simulation across the steady interval
// ahead. It returns (true, nil) after advancing e.timeTicks by the jumped
// span with the model state exactly as the equivalent fixed ticks would
// have left it, and (false, nil) when any legality condition fails — the
// caller then runs an ordinary tick. The horizon is the earliest of:
//
//   - the next scheduled event (arrival, departure, ambient step, ...);
//   - the next governor epoch, unless the policy is a marked util-only
//     fixed point (UtilOnlyGovernor + an unchanged last epoch under the
//     same utilisations);
//   - the next power-meter sampling instant, which must latch a freshly
//     evaluated power value, so it always runs as a real tick;
//   - the depletion of a busy work chunk (one full tick of margin, so
//     every jumped tick is provably fully busy);
//   - the run horizon (MinTimeS when drained; the tick before MaxTimeS).
//
// Temperature-dependent interactions — the TMU trip threshold and the
// 25 °C leakage-linearity floor — are endpoint-checked, which the
// monotone trajectory direction reported by thermal.Superstep.Jump makes
// sufficient for the whole interval; a mixed-direction probe falls back
// to fixed ticks.
//
//teem:hotpath
func (e *Engine) superstep(dt float64, maxTicks, minTicks int) (bool, error) {
	if e.ssOff || e.stepper == nil {
		return false, nil
	}
	if !e.cfg.DisableHWProtect && e.throttled {
		// While throttled the release check may fire on any tick.
		e.stats.RejectTMU++
		return false, nil
	}
	if e.peakTemps == nil {
		// Let the first ordinary tick seed the peak-temperature snapshot;
		// afterwards the falling-trajectory case needs no interior peak
		// bookkeeping (the pre-jump state already bounds it).
		return false, nil
	}
	k := e.timeTicks
	if k < e.ssSkipUntil {
		// A recent probe reported a mixed trajectory direction; the system
		// is hovering near equilibrium and the probe outcome will not
		// change until the horizon that jump was bounded by.
		e.stats.RejectMixed++
		return false, nil
	}
	// Keep the final tick before MaxTimeS an ordinary one so an aborted
	// run's closing trace sample carries a freshly evaluated breakdown.
	n := maxTicks - k - 1
	if e.drained() {
		if m := minTicks - k; m < n {
			n = m
		}
	}
	if e.evIdx < len(e.events) {
		if m := e.events[e.evIdx].tick - k; m < n {
			n = m
		}
	}
	if n < superstepMinSpan {
		e.stats.RejectEvent++
		return false, nil
	}
	// The meter latches the instantaneous power at its sampling instants;
	// land exactly on the next one (same tick arithmetic as TimeS) so it
	// samples a real evaluation.
	next := e.meter.NextSampleAtS()
	kc := int(next / dt)
	for float64(kc)*dt < next {
		kc++
	}
	if m := kc - k; m < n {
		n = m
	}
	if n < superstepMinSpan {
		e.stats.RejectMeter++
		return false, nil
	}
	// Steady-interval classification: a busy chunk must stay fully busy
	// for every jumped tick, with one tick of margin before depletion so
	// sequential floating-point accounting cannot cross zero early.
	var rateCPU, rateGPU, cpuBusy, gpuBusy float64
	if e.app != nil {
		rateCPU, rateGPU = e.rates()
		if e.remCPU > 0 && rateCPU > 0 {
			cpuBusy = 1
			if q := e.remCPU / (rateCPU * dt); q < float64(n)+2 {
				if m := int(q) - 1; m < n {
					n = m
				}
			}
		}
		if e.remGPU > 0 && rateGPU > 0 {
			gpuBusy = 1
			if q := e.remGPU / (rateGPU * dt); q < float64(n)+2 {
				if m := int(q) - 1; m < n {
					n = m
				}
			}
		}
	}
	bigBusy, litBusy := cpuBusy, cpuBusy
	if e.curMap.Big == 0 {
		bigBusy = 0
	}
	if e.curMap.Little == 0 {
		litBusy = 0
	}
	govClamped := false
	if e.govEvery > 0 {
		// Epochs may be crossed only when the policy is a marked pure
		// fixed point AND the utilisations the skipped epochs would see
		// equal the ones the stable epoch saw (frequency changes reset
		// govStable through setFreq).
		cross := e.govPure && e.govStable
		if cross {
			for i := range e.govUtils {
				b := e.utils[i]
				switch i {
				case e.bigIdx:
					b = bigBusy
				case e.litIdx:
					b = litBusy
				case e.gpuIdx:
					b = gpuBusy
				}
				if e.govUtils[i] != b {
					cross = false
					break
				}
			}
		}
		if !cross {
			r := k % e.govEvery
			if r == 0 {
				e.stats.RejectGovernor++
				return false, nil
			}
			if m := e.govEvery - r; m < n {
				n = m
				govClamped = true
			}
		}
	}
	if n < superstepMinSpan {
		// The span died on whichever clamp shrank it last: a governor
		// epoch boundary, or a work chunk about to deplete.
		if govClamped {
			e.stats.RejectGovernor++
		} else {
			e.stats.RejectWork++
		}
		return false, nil
	}
	bigNode := e.nodeOf[e.bigIdx]
	if !e.cfg.DisableHWProtect && e.therm.Temp(bigNode) >= e.plat.TripC {
		// The trip would fire on this tick's protection check.
		e.stats.RejectTMU++
		return false, nil
	}
	// Abort poll, once per jump — the same bound as one tick of the
	// ordinary loop.
	if e.cfg.Done != nil {
		select {
		case <-e.cfg.Done:
			return false, fmt.Errorf("aborted at t=%gs: %w", e.TimeS(), ErrAborted)
		default:
		}
	}
	// Affine power decomposition at the steady operating point: constant
	// injection per node plus a leakage slope folded into the jump map.
	// The decomposition is a pure function of the per-cluster loads and
	// the DRAM traffic, so a fingerprint match against the previous
	// attempt reuses ssInj/ssSlopeCur/ss without touching the power
	// model — the common case inside a long steady stretch.
	memGBs := 0.0
	if e.app != nil {
		memRate := 0.0
		if cpuBusy > 0 {
			memRate += rateCPU * cpuBusy
		}
		if gpuBusy > 0 {
			memRate += rateGPU * gpuBusy
		}
		memGBs = e.app.MemGBs(memRate)
	}
	for i := range e.plat.Clusters {
		l := e.loads[i]
		l.FreqMHz = e.freqs[i]
		l.VoltV = e.volts[i]
		l.TempC = 0 // ignored by the affine form; keep the fingerprint stable
		var busy float64
		switch i {
		case e.bigIdx, e.litIdx:
			busy = cpuBusy
		case e.gpuIdx:
			busy = gpuBusy
		}
		if l.ActiveCores == 0 {
			busy = 0
		}
		l.Utilization = busy
		e.ssLoads[i] = l
	}
	if !e.ssOpValid || memGBs != e.ssOpMemGBs || !equalLoads(e.ssLoads, e.ssOpLoads) {
		for i := range e.ssInj {
			e.ssInj[i] = 0
			e.ssSlopeCur[i] = 0
		}
		for i := range e.plat.Clusters {
			dyn, lkc, lks, err := e.pow.ClusterPowerAffine(i, e.ssLoads[i])
			if err != nil {
				return false, err
			}
			e.ssInj[e.nodeOf[i]] += dyn + lkc
			e.ssSlopeCur[e.nodeOf[i]] += lks
		}
		e.ssInj[e.pkgNode] += memGBs*e.plat.DRAMPowerPerGBs + e.cfg.PkgBaselineFrac*e.plat.BoardBaselineW
		// Bind the jump map for this slope vector, favouring the recency
		// pool so alternating operating points (busy ↔ idle, DVFS ladders)
		// reuse their powered propagators.
		e.ss = nil
		for _, ss := range e.ssPool {
			if equalFloats(ss.Slope(), e.ssSlopeCur) {
				e.ss = ss
				e.stats.PoolHits++
				break
			}
		}
		if e.ss == nil {
			ss, err := thermal.NewSuperstep(e.stepper, e.ssSlopeCur)
			if err != nil {
				// A system the jump map cannot certify as monotone: fall
				// back to fixed ticks for the rest of the run.
				e.ssOff = true
				return false, nil
			}
			e.stats.PoolMisses++
			if len(e.ssPool) >= ssPoolLimit {
				// Fold the evicted map's jump-block cache counters into
				// the flight recorder before it goes unreachable.
				h, m := e.ssPool[0].BlockCacheStats()
				e.stats.JumpBlockHits += h
				e.stats.JumpBlockMisses += m
				copy(e.ssPool, e.ssPool[1:])
				e.ssPool = e.ssPool[:len(e.ssPool)-1]
			}
			//teem:alloc-ok bounded propagator pool (ssPoolLimit entries), filled once per operating point
			e.ssPool = append(e.ssPool, ss)
			e.ss = ss
		}
		copy(e.ssOpLoads, e.ssLoads)
		e.ssOpMemGBs = memGBs
		e.ssOpValid = true
	}
	// The affine leakage form holds only at or above the 25 °C reference;
	// endpoint checks (start here, landing below) bound the monotone
	// interior.
	for i, s := range e.ssSlopeCur {
		if s > 0 && e.therm.Temp(i) < 25 {
			e.stats.RejectLeakage++
			return false, nil
		}
	}
	endTemps, dir, err := e.ss.Jump(n, e.ssInj)
	if err != nil {
		return false, err
	}
	if dir == 0 {
		// Mixed trajectory: endpoint guards would not bound the interior.
		// Skip further attempts across this horizon — near equilibrium the
		// probe stays mixed, and ticking is always correct.
		e.ssSkipUntil = k + n
		e.stats.RejectMixed++
		return false, nil
	}
	if !e.cfg.DisableHWProtect && endTemps[bigNode] >= e.plat.TripC {
		// The trip would fire somewhere inside the interval; let fixed
		// ticks find the exact crossing.
		e.stats.RejectTMU++
		return false, nil
	}
	for i, s := range e.ssSlopeCur {
		if s > 0 && endTemps[i] < 25 {
			e.stats.RejectLeakage++
			return false, nil
		}
	}
	if err := e.ss.Commit(); err != nil {
		return false, err
	}
	// A rising interval's peak is its landing state (the interior is
	// bounded by it, componentwise); a falling one cannot beat the
	// pre-jump peak, which a real tick already folded in. This keeps the
	// exact per-node running maxima identical to a fixed-tick run.
	if t := endTemps[bigNode]; t > e.peakBigC {
		e.peakBigC = t
		e.therm.CopyTemps(e.peakTemps)
	}
	if dir > 0 {
		for i := range e.peakC {
			if endTemps[i] > e.peakC[i] {
				e.peakC[i] = endTemps[i]
			}
		}
	}
	// Deplete work with the same per-tick arithmetic advanceWork would
	// have used, so chunk-depletion times stay bit-identical.
	if cpuBusy == 1 {
		for j := 0; j < n; j++ {
			e.remCPU -= rateCPU * dt
		}
	}
	if gpuBusy == 1 {
		for j := 0; j < n; j++ {
			e.remGPU -= rateGPU * dt
		}
	}
	e.utils[e.bigIdx] = bigBusy
	e.utils[e.litIdx] = litBusy
	e.utils[e.gpuIdx] = gpuBusy
	e.timeTicks += n
	e.stats.Supersteps++
	e.stats.SuperstepTicks += int64(n)
	if int64(n) > e.stats.MaxJump {
		e.stats.MaxJump = int64(n)
	}
	return true, nil
}

// equalFloats compares two equal-length float vectors exactly.
func equalFloats(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// equalLoads compares two equal-length cluster-load vectors exactly.
func equalLoads(a, b []power.ClusterLoad) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

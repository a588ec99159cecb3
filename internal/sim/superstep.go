// Event-horizon superstepping: the engine's fast path across provably
// steady intervals. When nothing that could change the operating point is
// pending — no scheduled event, no governor decision that could move a
// frequency, no hardware-protection interaction, no work-chunk depletion
// — the per-tick recurrence is a fixed affine map of the temperature
// vector, and the engine replays n ticks of it in one application of its
// shared modal form (thermal.Superstep). The jump reproduces the
// fixed-tick trajectory to about 1e-10 °C; every guard here is about
// proving the interval really is steady. The power-meter sampling
// instants inside a span are evaluated in closed form from the same
// modal form, and latched as the ordinary tick would latch them. Where
// the operating point is proven fixed but a temperature guard refuses
// the jump, the engine advances the interval in record segments instead:
// closed-form steps of at most one trace record period, each certified
// monotone on every node, so every record sample is still taken. A
// segment the certificate refuses, and a span too short to segment, is
// walked: the ordinary tick's own arithmetic, minus everything that
// cannot change at a fixed operating point. Anything else falls through
// to the ordinary tick.

package sim

import (
	"math"
	"slices"

	"teem/internal/power"
	"teem/internal/soc"
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
// thermal sensors), so its epochs bound every record segment and walk,
// and a jump crosses them only by its quiet band (QuietGovernor).
// Implement UtilOnly to return true only if the policy honours this
// contract — a policy that reads anything else must not be marked, or
// supersteps will skip decisions it would have made.
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

// QuietGovernor is an optional interface for Governor implementations
// whose Act compares one thermal sensor with one threshold and reads
// nothing else but the current frequencies. QuietBand reports, at the
// machine's current frequencies and throttle state, the sensor and the
// side of the threshold on which Act changes nothing: given such a
// reading it makes no SetClusterFreqMHz call and changes no state of its
// own. quietBelow means readings below thresholdC are quiet, otherwise
// readings at or above it are; ok = false means no reading is. The TEEM
// controller (internal/core) implements it. When the policy's period is
// a whole number of power-meter periods, its epochs are meter instants,
// and a jump reads the sensor at each epoch it crosses and lands on the
// first one whose reading leaves the band (see horizon and jump).
type QuietGovernor interface {
	Governor
	QuietBand(m Machine) (sensor string, thresholdC float64, quietBelow, ok bool)
}

// quietBand is the band of a QuietGovernor a planned jump reads at the
// epochs it crosses: readings of node below thresholdC are quiet when
// below is set, readings at or above it otherwise.
type quietBand struct {
	node       int
	thresholdC float64
	below      bool
}

// quiet reports whether reading t lies in the band.
//
//teem:hotpath
func (b *quietBand) quiet(t float64) bool {
	return (t < b.thresholdC) == b.below
}

// setQuietGov records g as the engine's QuietGovernor when it is one and
// its period, every ticks, is a whole number of meter periods, so its
// epochs are meter instants; otherwise it clears it.
func (e *Engine) setQuietGov(g Governor, every int) {
	e.govQuiet = nil
	if q, ok := g.(QuietGovernor); ok && every%tickAt(e.meter.PeriodS, TickS) == 0 {
		e.govQuiet = q
	}
}

// superstepMinSpan is the smallest jump worth planning: below this the
// affine setup costs more than the ticks it would replace. A shorter
// proven horizon is walked instead (see advance).
const superstepMinSpan = 4

// maxSpanInstants bounds the power-meter sampling instants one span
// crosses: a jump polls cancellation once, so this bounds how much
// simulated time an abort waits for.
const maxSpanInstants = 64

// meterGuard is the guard band, in meter quanta, around the meter's
// rounding boundaries: a closed-form power this close to one is not
// latched (powermeter.Meter.Robust). The closed form agrees with the
// tick's own power to about 1e-10 W, far inside the 1e-6 W the band
// spans at the modelled meter's 0.01 W resolution.
const meterGuard = 1e-4

// drained reports that no workload activity remains: no live job, no
// queued job, no undelivered scheduled event.
func (e *Engine) drained() bool {
	return e.app == nil && e.QueuedJobs() == 0 && e.evIdx >= len(e.events)
}

// steadyOp is the operating point a proven horizon holds fixed: the
// work-item rates in effect, each chunk's busy fraction (1 fully busy, 0
// idle) and the utilisations the CPU clusters report for it.
type steadyOp struct {
	rateCPU, rateGPU float64
	cpuBusy, gpuBusy float64
	bigBusy, litBusy float64
}

// horizon proves how many ticks from now run at one fixed operating
// point. The span ends at the earliest of:
//
//   - the run horizon (MinTimeS when drained; the tick before MaxTimeS,
//     so an aborted run's closing trace sample carries a freshly
//     evaluated breakdown);
//   - the next scheduled event (arrival, departure, ambient step, ...);
//   - the depletion of a busy work chunk (one full tick of margin, so
//     every tick of the span is provably fully busy);
//   - the next governor epoch, unless the policy is a marked util-only
//     fixed point (UtilOnlyGovernor + an unchanged last epoch under the
//     same utilisations, see crossesEpochs) — the one epoch bound a jump,
//     a record segment and a walk share — or, for a jump alone, a
//     QuietGovernor with a quiet band at the current frequencies (see
//     quietEpochs), whose epochs the jump reads;
//   - the tick after the maxSpanInstants-th power-meter sampling instant.
//
// It returns the span n a jump may take (possibly ≤ 0), the span na ≤ n
// record segments and walks may take, which ends at the first epoch of a
// quiet band's policy, the operating point, and — when n is shorter
// than superstepMinSpan — the flight-recorder counter of the clamp that
// made it so, in the order the clamps apply (nil otherwise).
//
//teem:hotpath
func (e *Engine) horizon(dt float64, maxTicks, minTicks int) (n, na int, op steadyOp, short *int64) {
	k := e.timeTicks
	n = maxTicks - k - 1
	if e.drained() {
		n = min(n, minTicks-k)
	}
	if e.evIdx < len(e.events) {
		n = min(n, e.events[e.evIdx].tick-k)
	}
	if n < superstepMinSpan {
		short = &e.stats.RejectEvent
	}
	last := e.meter.NextSampleAtS() + (maxSpanInstants-1)*e.meter.PeriodS
	n = min(n, tickAt(last, dt)-k+1)
	// A busy chunk must stay fully busy for every tick of the span, with
	// one tick of margin before depletion so sequential floating-point
	// accounting cannot cross zero early.
	if e.app != nil {
		op.rateCPU, op.rateGPU = e.rates()
		if e.remCPU > 0 && op.rateCPU > 0 {
			op.cpuBusy = 1
			if q := e.remCPU / (op.rateCPU * dt); q < float64(n)+2 {
				n = min(n, int(q)-1)
			}
		}
		if e.remGPU > 0 && op.rateGPU > 0 {
			op.gpuBusy = 1
			if q := e.remGPU / (op.rateGPU * dt); q < float64(n)+2 {
				n = min(n, int(q)-1)
			}
		}
	}
	op.bigBusy, op.litBusy = e.cpuUtils(op.cpuBusy)
	govClamped := false
	na = n
	if e.govEvery > 0 && !e.crossesEpochs(op) {
		if r := k % e.govEvery; r == 0 {
			// This tick is an epoch: it runs as an ordinary tick.
			n, na = 0, 0
			if short == nil {
				short = &e.stats.RejectGovernor
			}
		} else if m := e.govEvery - r; m < n {
			na = m
			if !e.quietEpochs() {
				n = m
				govClamped = true
			}
		}
	}
	if short == nil && n < superstepMinSpan {
		// The span died on whichever clamp shrank it last: a governor
		// epoch boundary, or a work chunk about to deplete.
		if govClamped {
			short = &e.stats.RejectGovernor
		} else {
			short = &e.stats.RejectWork
		}
	}
	return n, na, op, short
}

// quietEpochs reports whether a jump may cross the policy's epochs,
// reading its quiet band at each: the policy is a QuietGovernor whose
// epochs are meter instants (see setQuietGov) and it reports a band on a
// sensor the platform has at the current frequencies. It records that
// band in e.band for jump.
//
//teem:hotpath
func (e *Engine) quietEpochs() bool {
	if e.govQuiet == nil {
		return false
	}
	sensor, thresholdC, below, ok := e.govQuiet.QuietBand(e)
	if !ok {
		return false
	}
	node, ok := e.sensors[sensor]
	if !ok {
		return false
	}
	e.band = quietBand{node: node, thresholdC: thresholdC, below: below}
	return true
}

// tickAt is the first tick whose start time (TimeS's arithmetic) is at or
// past tS: the tick whose ordinary evaluation latches a meter sampling
// instant at tS.
//
//teem:hotpath
func tickAt(tS, dt float64) int {
	k := int(tS / dt)
	for float64(k)*dt < tS {
		k++
	}
	return k
}

// meterTick is the tick that latches the meter's next sampling instant.
//
//teem:hotpath
func (e *Engine) meterTick() int {
	return tickAt(e.meter.NextSampleAtS(), TickS)
}

// latch feeds the meter the power e.bd holds for the tick a walk is on,
// a sampling instant, as the ordinary tick does, then polls
// cancellation: walks and segments poll at every instant they cross.
//
//teem:hotpath
func (e *Engine) latch() error {
	if err := e.meter.Observe(e.TimeS(), e.bd.TotalW()); err != nil {
		return err
	}
	return e.aborted()
}

// crossesEpochs reports whether a span at op may cross governor epochs:
// the policy is a marked pure fixed point AND the utilisations the
// skipped epochs would see equal the ones the stable epoch saw: op's,
// and for an epoch on this tick also the ones the last tick left, which
// differ after a job that ended inside it (frequency changes reset
// govStable through setFreq). It is the one epoch rule of every advance
// path: horizon clamps any other span at the next epoch, and jumps,
// record segments and walks all run on horizon's span. It holds on a
// throttled chip too: each skipped epoch would make the stable epoch's
// SetClusterFreqMHz calls on the same utilisations and capped
// frequencies, which rewrite preThrottleMHz with the value it holds and
// change no frequency, while trips and releases still run as ordinary
// ticks because segments and walks stop before them.
//
//teem:hotpath
func (e *Engine) crossesEpochs(op steadyOp) bool {
	if !e.govPure || !e.govStable {
		return false
	}
	now := e.timeTicks%e.govEvery == 0
	for i, u := range e.govUtils {
		b := e.utils[i]
		switch i {
		case e.bigIdx:
			b = op.bigBusy
		case e.litIdx:
			b = op.litBusy
		case e.gpuIdx:
			b = op.gpuBusy
		}
		if u != b || (now && u != e.utils[i]) {
			return false
		}
	}
	return true
}

// superstep advances the simulation across the steady horizon ahead, or
// declines to. It returns true after advancing e.timeTicks — by a jump,
// record segments or a walk — with the model state as the equivalent
// ordinary ticks would have left it (bit for bit after a walk, to
// rounding after a jump or segment), and false when the next tick must
// be an ordinary one.
//
// The horizon (see horizon) proves the operating point constant; a
// thermal certificate then decides whether the span may be jumped in one
// closed-form application of thermal.Superstep (see jump). The
// certificate holds when the chip is not throttled (the release check
// may fire on any tick), the span is at least superstepMinSpan, the TMU
// trip cannot fire on this tick, the 25 °C leakage-linearity floor holds
// at the start, and the probed trajectory is monotone: the monotone
// direction reported by thermal.Superstep.Jump makes endpoint checks
// sufficient for the whole interval.
//
// When the horizon holds but the certificate fails, the span is advanced
// in record segments or walked instead (see advance), because re-planning
// on each of its ticks would refuse each jump in turn: a throttled chip
// stays throttled until the release the advance stops before, a mixed
// verdict holds until a re-probe at a meter instant turns monotone, a
// short span only shortens, and a landing point past the trip or below
// the floor is the same state for every later tick of the span. A mixed
// span runs to the end of its horizon, re-probing at each meter instant
// it crosses and stopping after the first where a planner that stopped
// at every instant would not have found it mixed again (see reprobe); a
// refused span ends before the next meter instant after this tick, where
// such a planner probed again. A start below the 25 °C floor is the
// exception: the next tick may warm past it and certify a jump, so it
// re-plans there.
//
//teem:hotpath
func (e *Engine) superstep(dt float64, maxTicks, minTicks int) (bool, error) {
	if e.ssOff || e.stepper == nil {
		return false, nil
	}
	k, km := e.timeTicks, e.meterTick()
	n, na, op, short := e.horizon(dt, maxTicks, minTicks)
	switch {
	case e.throttled:
		// Only the TMU throttles (hwProtect), and never with
		// DisableHWProtect.
		e.stats.RejectTMU++
		return e.advance(dt, na, op, false)
	case k == 0:
		// Let the first ordinary tick fold a state into the peaks;
		// afterwards the falling-trajectory case needs no interior peak
		// bookkeeping (the pre-jump state already bounds it).
		return false, nil
	case k == km:
		// A span does not start on a meter instant: the span before
		// ended there, and its tick latches the meter and leads to the
		// probe a planner that stopped at every instant would take.
		e.stats.RejectMeter++
		return false, nil
	case short != nil:
		*short++
		return e.advance(dt, na, op, false)
	case e.tmuFires():
		// The trip fires on this tick's protection check.
		e.stats.RejectTMU++
		return false, nil
	}
	// Abort poll, once per jump — the same wall-clock bound as one tick
	// of the ordinary loop.
	if err := e.aborted(); err != nil {
		return false, err
	}
	if ok, err := e.bindJumpMap(op); err != nil || !ok {
		return false, err
	}
	// The affine leakage form holds only at or above the 25 °C reference;
	// endpoint checks (start here, landing below) bound the monotone
	// interior. A cold start is not walked: the next tick may warm past
	// the floor and certify a jump.
	if e.belowFloor() {
		e.stats.RejectLeakage++
		return false, nil
	}
	end, dir, err := e.ss.Jump(n, e.ssInj)
	if err != nil {
		return false, err
	}
	if dir == 0 {
		// Mixed trajectory: endpoint guards would not bound the interior.
		// Advance the span in segments, which re-probe at each meter
		// instant they cross.
		e.stats.RejectMixed++
		return e.advance(dt, na, op, true)
	}
	return e.jump(dt, n, na < n, km, op, end, dir)
}

// jump takes a monotone span of n ticks planned on e.ss, landing in end,
// or refuses it into an advance of the span up to its first meter
// instant km. Each meter instant k_m the jump crosses is latched as an
// ordinary tick would latch it: the power law at T(k_m), evaluated in
// closed form from the carried modal state (thermal.Superstep's
// InstantSlopeW, O(N) per instant), and on a record tick the sample of
// time k_m·dt, state T(k_m+1) and that power.
//
// When the landing state fails the TMU trip or 25 °C floor check (see
// refuse), the jump ends after the last instant whose state T(k_m)
// passes, where a planner that stopped at every instant and ticked it
// would have probed next; when no instant passes, the span is refused
// into an advance up to its first instant. When epochs is set the span
// crosses governor epochs by the policy's quiet band (see quietEpochs):
// each is a meter instant, and the jump reads the band's sensor in
// T(k_m) there and lands on the first epoch whose reading leaves the
// band, which then runs as an ordinary tick, as the epoch of a span
// clamped at it does. A closed-form power within meterGuard quanta of a
// rounding boundary is not latched: the jump lands on that instant,
// whose tick then runs as an ordinary one and latches its own power.
//
//teem:hotpath
func (e *Engine) jump(dt float64, n int, epochs bool, km int, op steadyOp, end []float64, dir int) (bool, error) {
	k, ss := e.timeTicks, e.ss
	land, refused := n, e.refuse(end)
	if refused != nil {
		land = 0
	}
	e.setUtils(op.bigBusy, op.litBusy, op.gpuBusy)
	for ; km < k+n; km = e.meterTick() {
		slopeW := ss.InstantSlopeW(km - k)
		epoch := epochs && km%e.govEvery == 0
		if refused != nil || epoch {
			ss.InstantTemps(e.recTemps, 0)
		}
		if refused != nil {
			if r := e.refuse(e.recTemps); r != nil {
				refused = r
				break
			}
		}
		if epoch && !e.band.quiet(e.recTemps[e.band.node]) {
			land = km - k
			break
		}
		p := e.segmentPowerW(slopeW)
		if !e.meter.Robust(p, meterGuard) {
			land = km - k
			break
		}
		if err := e.meter.Observe(float64(km)*dt, p); err != nil {
			return false, err
		}
		if km%e.recEvery == 0 {
			ss.InstantTemps(e.recTemps, 1)
			if err := e.sample(km, p); err != nil {
				return false, err
			}
		}
		if refused != nil {
			land = km - k + 1
		}
	}
	if land == 0 {
		*refused++
		return e.advance(dt, min(n, km-k), op, false)
	}
	if land != n {
		var err error
		if end, _, err = ss.Jump(land, e.ssInj); err != nil {
			return false, err
		}
	}
	if err := ss.Commit(); err != nil {
		return false, err
	}
	// A rising interval's peak is its landing state (the interior is
	// bounded by it, componentwise); a falling one cannot beat the
	// pre-jump peak, which a real tick already folded in. This keeps the
	// exact per-node running maxima identical to a fixed-tick run.
	if dir > 0 {
		for i := range e.peakC {
			if end[i] > e.peakC[i] {
				e.peakC[i] = end[i]
			}
		}
	}
	e.deplete(dt, land, &op)
	e.timeTicks += land
	e.stats.Supersteps++
	e.stats.SuperstepTicks += int64(land)
	e.stats.MaxJump = max(e.stats.MaxJump, int64(land))
	return true, nil
}

// refuse is the one landing guard of jumps and segments: it returns the
// rejection counter of an advance whose landing state t would trip or
// release the TMU (see tmuFiresAt) or put a node with a leakage slope
// below the 25 °C floor, where the jump map's affine leakage form no
// longer holds, or nil when the advance may land there.
//
//teem:hotpath
func (e *Engine) refuse(t []float64) *int64 {
	if e.tmuFiresAt(t[e.nodeOf[e.bigIdx]]) {
		return &e.stats.RejectTMU
	}
	for i, s := range e.ssSlopeCur {
		if s > 0 && t[i] < 25 {
			return &e.stats.RejectLeakage
		}
	}
	return nil
}

// deplete drains the busy work chunks across n ticks at op, as
// advanceWork's per-tick subtraction would drain them (see drain), so
// chunk-depletion times stay bit-identical.
//
//teem:hotpath
func (e *Engine) deplete(dt float64, n int, op *steadyOp) {
	if op.cpuBusy == 1 {
		e.remCPU = drain(e.remCPU, float64(op.rateCPU*dt), n)
	}
	if op.gpuBusy == 1 {
		e.remGPU = drain(e.remGPU, float64(op.rateGPU*dt), n)
	}
}

// drain returns rem after n steps of rem -= c, bit for bit, in time that
// grows with the binades rem crosses, not with n. A binade [2^e, 2^(e+1))
// holds the multiples of one ulp u, so a step whose exact result stays
// in it rounds to a multiple of u and removes RoundToEven(c/u)·u: the
// same amount every step, once the value is even in units of u where
// c/u ends in one half (round-half-even makes it so, and an even step
// keeps it so). That holds after any real step, so drain takes one, then
// as many equal steps as keep each exact result at or above 2^e, in
// integer arithmetic, and repeats in the next binade. Values outside the
// positive normal range, and a c that is not positive and finite, take
// real steps only.
//
//teem:hotpath
func drain(rem, c float64, n int) float64 {
	for n > 0 {
		rem -= c
		n--
		// rem = r·u with r in [2^52, 2^53), read off the bits of a
		// positive normal float whose ulp u is normal too.
		bits := math.Float64bits(rem)
		e := bits >> 52
		if n == 0 || e <= 52 || e >= 0x7ff {
			continue
		}
		u := math.Float64frombits((e - 52) << 52)
		r := int64(bits&(1<<52-1) | 1<<52)
		cu := c / u
		// A step from r·u is one of the equal steps while r − c/u ≥ 2^52,
		// that is while r − 2^52 ≥ ⌈c/u⌉, which is at least 1 for c > 0.
		ceil := math.Ceil(cu)
		if !(1 <= ceil && ceil <= float64(r-1<<52)) {
			continue
		}
		d := int64(math.RoundToEven(cu))
		if d == 0 {
			return rem
		}
		steps := min(int64(n), (r-1<<52-int64(ceil))/d+1)
		rem = float64(r-steps*d) * u
		n -= int(steps)
	}
	return rem
}

// advance is the one entry for a proven horizon of n ticks at op that is
// not jumped: a span of at least superstepMinSpan ticks in record
// segments on op's jump map (see segments), a shorter one, or one on a
// system the map cannot certify, walked (see walkTicks). The horizon
// already bounds it by the one epoch rule, so it crosses governor epochs
// exactly where a jump on the same rule would, and stops at the first
// epoch of a quiet band's policy. A mixed span's segments re-probe at
// the meter instants they cross (see reprobe); a mixed span too short to
// segment ends before the next instant. It declines an empty span and
// one whose first tick's TMU check would trip or release, polls
// cancellation once (segments and walks poll again after every meter
// instant) and charges its wall time to the thermal phase. It reports
// whether it advanced.
//
//teem:hotpath
func (e *Engine) advance(dt float64, n int, op steadyOp, mixed bool) (bool, error) {
	if n < 1 || e.tmuFires() {
		return false, nil
	}
	seg := false
	if n >= superstepMinSpan {
		var err error
		if seg, err = e.bindJumpMap(op); err != nil {
			return false, err
		}
	}
	if err := e.aborted(); err != nil {
		return false, err
	}
	clk := e.clock
	var t0 int64
	if clk != nil {
		t0 = clk()
	}
	if seg {
		if err := e.segments(dt, n, op, mixed); err != nil {
			return false, err
		}
	} else {
		var leak steadyLeak
		if err := e.steadyPower(&op, &leak); err != nil {
			return false, err
		}
		if err := e.walkTicks(dt, n, &op, &leak); err != nil {
			return false, err
		}
	}
	if clk != nil {
		e.stats.ThermalNanos += clk() - t0
	}
	return true, nil
}

// bindJumpMap binds the engine's jump map e.ss to op's leakage-slope
// vector, with op's constant per-node injection in e.ssInj, and reports
// false when the system cannot be certified (the fast path then latches
// off). The affine power decomposition is a pure function of the
// per-cluster loads and the DRAM traffic, so a fingerprint match against
// the previous binding reuses ssInj/ssSlopeCur/ss without touching the
// power model — the common case inside a long steady stretch. Otherwise
// the map is built at the engine's first binding and rebound in place
// (thermal.Superstep.Rebind) when the slope vector changed, which takes
// the system's shared form for it; an unchanged slope keeps the map as
// it is.
//
//teem:hotpath
func (e *Engine) bindJumpMap(op steadyOp) (bool, error) {
	memGBs := e.memGBs(op.cpuBusy, op.gpuBusy, op.rateCPU, op.rateGPU)
	for i := range e.ssLoads {
		// TempC is ignored by the affine form; keep the fingerprint stable.
		e.ssLoads[i] = e.loads[i]
		e.setLoad(&e.ssLoads[i], i, op.cpuBusy, op.gpuBusy, 0)
	}
	if e.ss != nil && memGBs == e.ssOpMemGBs && slices.Equal(e.ssLoads, e.ssOpLoads) {
		return true, nil
	}
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
	e.ssInj[e.pkgNode] += memGBs*e.plat.DRAMPowerPerGBs + pkgBaselineShare*e.plat.BoardBaselineW
	if e.ss != nil && slices.Equal(e.ss.Slope(), e.ssSlopeCur) {
		e.stats.PoolHits++
	} else {
		var err error
		if e.ss == nil {
			e.ss, err = thermal.NewSuperstep(e.stepper, e.ssSlopeCur)
		} else {
			err = e.ss.Rebind(e.ssSlopeCur)
		}
		if err != nil {
			// A system the jump map cannot certify as monotone: fall
			// back to fixed ticks for the rest of the run.
			e.ssOff = true
			return false, nil
		}
		e.stats.PoolMisses++
		if e.ss.Reused() {
			e.stats.JumpBlockHits++
		} else {
			e.stats.JumpBlockMisses++
		}
	}
	copy(e.ssOpLoads, e.ssLoads)
	e.ssOpMemGBs = memGBs
	return true, nil
}

// steadyLeak is each cluster's leakage base and temperature coefficient
// at a fixed operating point, indexed like the platform's clusters.
type steadyLeak struct {
	base, coeff [soc.GPU + 1]float64
}

// steadyPower publishes op's utilisations and evaluates its power once,
// by the power model itself at the 25 °C reference (where the
// temperature factor is exactly 1): the dynamic, DRAM and baseline power
// into e.bd, and each cluster's leakage base into leak with its
// coefficient. power.Leakage then turns a base into ClusterPower's own
// leakage at any temperature, bit for bit.
//
//teem:hotpath
func (e *Engine) steadyPower(op *steadyOp, leak *steadyLeak) error {
	e.setUtils(op.bigBusy, op.litBusy, op.gpuBusy)
	for i := range e.loads {
		e.setLoad(&e.loads[i], i, op.cpuBusy, op.gpuBusy, 25)
	}
	if err := e.pow.EvaluateInto(&e.bd, e.loads, e.memGBs(op.cpuBusy, op.gpuBusy, op.rateCPU, op.rateGPU)); err != nil {
		return err
	}
	nc := len(e.plat.Clusters)
	copy(leak.base[:nc], e.bd.LeakageW)
	for i := range nc {
		leak.coeff[i] = e.plat.Clusters[i].LeakTempCoeff
	}
	return nil
}

// segments advances n ticks of a proven horizon at op in record
// segments on the jump map bindJumpMap bound for op: each ends on the
// next record tick, the next meter instant or the span's end, so it is
// at most recEvery ticks (thermal.SegmentMaxTicks), and is evaluated in
// closed form (thermal.Superstep.Segment). A segment is taken when every
// node is certified monotone over it, every node with a leakage slope
// starts it at or above the 25 °C floor and its end state T(L) passes
// the landing guard (see refuse): its endpoints then bound each node's
// interior, so no interior tick trips, releases or leaves the affine
// leakage regime, and the peaks fold T(L). A segment that ends on a
// record tick samples it through record, and one that ends on a meter
// instant latches it, both with that tick's power from T(L−1) (see
// segmentPowerW), read as the plan's interior — unless that power lies
// within meterGuard quanta of a rounding boundary, when the segment is
// walked so the walk latches the tick's own power. A refused segment is
// walked (see walkTicks), and the segments stop where that walk stops
// before a TMU transition. The span crosses governor epochs where the
// horizon lets it (see crossesEpochs), as a jump does. A mixed span's
// segments also stop after a meter instant they or their walks cross
// where the re-probe does not find the stretch mixed (see reprobe). The
// busy chunks drain the segmented ticks once per span (see deplete).
// The running peaks already bound T(0): a throttled chip or a probed
// span follows a real tick. Segments count as supersteps, and leave e.bd
// to the next tick's evaluation. It polls cancellation after every meter
// instant.
//
//teem:hotpath
func (e *Engine) segments(dt float64, n int, op steadyOp, mixed bool) error {
	e.setUtils(op.bigBusy, op.litBusy, op.gpuBusy)
	ss := e.ss
	if err := ss.BeginSegments(e.ssInj); err != nil {
		return err
	}
	// The walk's power, evaluated at the first refused segment, and the
	// segmented ticks to drain. Every tick subtracts the same step, so
	// they drain after the walks' ticks to the same bits. A segment
	// starts below the floor only where the span or a walk does: a
	// committed one ends above it.
	var leak steadyLeak
	powered, undrained, cold := false, 0, e.belowFloor()
	for end, km := e.timeTicks+n, e.meterTick(); e.timeTicks < end; {
		k := e.timeTicks
		rec := k + (e.recEvery-k%e.recEvery)%e.recEvery
		l := min(rec+1, km+1, end) - k
		if next, ok := ss.Segment(l); ok && !cold && e.refuse(next) == nil {
			onRec, onMeter := k+l-1 == rec, k+l-1 == km
			var powW float64
			if onRec || onMeter {
				powW = e.segmentPowerW(ss.InstantSlopeW(l - 1))
			}
			if !onMeter || e.meter.Robust(powW, meterGuard) {
				if err := ss.Commit(); err != nil {
					return err
				}
				for i, t := range next {
					if t > e.peakC[i] {
						e.peakC[i] = t
					}
				}
				undrained += l
				if onMeter {
					if err := e.meter.Observe(float64(km)*dt, powW); err != nil {
						return err
					}
					km = e.meterTick()
				}
				if onRec {
					e.timeTicks = rec
					if err := e.record(powW); err != nil {
						return err
					}
				}
				e.timeTicks = k + l
				e.stats.Supersteps++
				e.stats.SuperstepTicks += int64(l)
				e.stats.SegmentTicks += int64(l)
				e.stats.MaxJump = max(e.stats.MaxJump, int64(l))
				if onMeter {
					if err := e.aborted(); err != nil {
						return err
					}
					if mixed && !e.reprobe(end) {
						break
					}
				}
				continue
			}
			e.stats.RejectMeter++
		}
		if !powered {
			if err := e.steadyPower(&op, &leak); err != nil {
				return err
			}
			powered = true
		}
		if err := e.walkTicks(dt, l, &op, &leak); err != nil {
			return err
		}
		crossed := e.meterTick() != km
		km, cold = e.meterTick(), e.belowFloor()
		if e.tmuFires() {
			break
		}
		if err := ss.BeginSegments(e.ssInj); err != nil {
			return err
		}
		if mixed && crossed && !e.reprobe(end) {
			break
		}
	}
	e.deplete(dt, undrained, &op)
	return nil
}

// reprobe reports whether a mixed stretch advancing to tick end goes on
// past the meter instant its segments or walks just crossed: it does
// while the span lasts, every node with a leakage slope is at or above
// the 25 °C floor and Jump's one-tick probe, re-run on the committed
// state under the injection BeginSegments took, stays mixed. Otherwise
// the stretch stops here, where a planner that ticked the instant would
// not have advanced a mixed span next: it would have jumped a monotone
// trajectory, or re-planned on each tick below the floor.
//
//teem:hotpath
func (e *Engine) reprobe(end int) bool {
	return e.timeTicks >= end || (!e.belowFloor() && e.ss.Direction() == 0)
}

// belowFloor reports that a node with a leakage slope sits below the
// 25 °C reference, where the jump map's affine leakage form does not
// hold.
//
//teem:hotpath
func (e *Engine) belowFloor() bool {
	for i, s := range e.ssSlopeCur {
		if s > 0 && e.therm.Temp(i) < 25 {
			return true
		}
	}
	return false
}

// segmentPowerW is the board power of a tick at the bound operating
// point whose leakage slopes contribute slopeW (Σ slope·T at its start
// state, every sloped node at or above 25 °C): the jump map's constant
// injection, slopeW, and the share of the board baseline InjectHeat puts
// on no node. It equals the breakdown a tick evaluates there to
// rounding.
//
//teem:hotpath
func (e *Engine) segmentPowerW(slopeW float64) float64 {
	p := (1-pkgBaselineShare)*e.plat.BoardBaselineW + slopeW
	for _, w := range e.ssInj {
		p += w
	}
	return p
}

// walkTicks walks up to n ticks of a proven horizon at its fixed
// operating point op from the current tick, with op's power already in
// e.bd and leak (see steadyPower), redoing only what can change there:
// work depletion with advanceWork's arithmetic, each cluster's leakage at
// its current temperature (power.Leakage, ClusterPower's own temperature
// term), the thermal step, the peak fold, the meter sample on a sampling
// instant (see latch) and the trace record, so each temperature, sample
// and decision equals the ordinary tick's bit for bit. It stops early
// after a tick whose successor's TMU check would trip or release; those
// run as ordinary ticks. On a 4-node network it runs the fused loop
// walk4; other networks step through stepThermal.
//
//teem:hotpath
func (e *Engine) walkTicks(dt float64, n int, op *steadyOp, leak *steadyLeak) error {
	k := e.timeTicks
	nextRec := k + (e.recEvery-k%e.recEvery)%e.recEvery
	walked := 0
	if e.fusedWalk() {
		var err error
		if walked, err = e.walk4(dt, n, nextRec, op, leak); err != nil {
			return err
		}
	} else {
		km := e.meterTick()
		for {
			if op.cpuBusy == 1 {
				e.remCPU -= float64(op.rateCPU * dt)
			}
			if op.gpuBusy == 1 {
				e.remGPU -= float64(op.rateGPU * dt)
			}
			for i := range e.nodeOf {
				e.bd.LeakageW[i] = power.Leakage(leak.base[i], leak.coeff[i], e.therm.Temp(e.nodeOf[i]))
			}
			if err := e.stepThermal(dt); err != nil {
				return err
			}
			e.foldPeaks()
			if e.timeTicks == km {
				if err := e.latch(); err != nil {
					return err
				}
				km = e.meterTick()
			}
			if e.timeTicks == nextRec {
				if err := e.record(e.bd.TotalW()); err != nil {
					return err
				}
				nextRec += e.recEvery
			}
			e.timeTicks++
			walked++
			if walked == n || e.tmuFires() {
				break
			}
		}
	}
	e.stats.Ticks += int64(walked)
	e.stats.WalkedTicks += int64(walked)
	return nil
}

// fusedWalk reports whether walkTicks runs walk4: a 4-node network whose three
// clusters each heat their own non-package node, as on every 4-node
// catalog platform. Cluster and node names are unique, so the clusters'
// nodes differ; only a cluster named "pkg" shares the package node.
// Other networks keep the general loop.
func (e *Engine) fusedWalk() bool {
	if len(e.peakC) != 4 || len(e.nodeOf) != 3 {
		return false
	}
	pkg := e.pkgNode
	return e.nodeOf[0] != pkg && e.nodeOf[1] != pkg && e.nodeOf[2] != pkg
}

// walk4 is walkTicks' loop on a network fusedWalk accepts, with each
// cluster's leakage base and temperature coefficient in leak, and the
// dynamic, DRAM and baseline power in e.bd. It keeps
// the node temperatures, the cluster leakages and the running peaks in
// locals and writes them back — to the thermal model, e.bd.LeakageW and
// e.peakC — only on a record tick or a meter instant, before the sample,
// and on its last tick. Each tick performs the ordinary tick's floating-point operations
// on the same operands in the same order: advanceWork's subtraction,
// power.Leakage, InjectHeat's sums (each node takes one term, and 0 + x
// is exact, so the zeroing goes) and thermal.Row4 in Step's row order.
// It returns the ticks walked.
//
//teem:hotpath
func (e *Engine) walk4(dt float64, n, nextRec int, op *steadyOp, leak *steadyLeak) (int, error) {
	pa, pb, pg, amb := e.stepper.Propagator()
	a, b, g := (*[16]float64)(pa), (*[16]float64)(pb), (*[4]float64)(pg)
	a0, a1, a2, a3 := (*[4]float64)(a[0:4]), (*[4]float64)(a[4:8]), (*[4]float64)(a[8:12]), (*[4]float64)(a[12:16])
	b0, b1, b2, b3 := (*[4]float64)(b[0:4]), (*[4]float64)(b[4:8]), (*[4]float64)(b[8:12]), (*[4]float64)(b[12:16])
	ga0, ga1, ga2, ga3 := g[0]*amb, g[1]*amb, g[2]*amb, g[3]*amb
	n0, n1, n2, big := e.nodeOf[0], e.nodeOf[1], e.nodeOf[2], e.nodeOf[e.bigIdx]
	d0, d1, d2 := e.bd.DynamicW[0], e.bd.DynamicW[1], e.bd.DynamicW[2]
	// t, p and peak are indexed by node; the package node's injection
	// holds for the whole walk.
	var t, p, peak [4]float64
	e.therm.CopyTemps(t[:])
	copy(peak[:], e.peakC)
	p[e.pkgNode] = e.bd.DRAMW + pkgBaselineShare*e.bd.BaselineW
	remCPU, remGPU := e.remCPU, e.remGPU
	km := e.meterTick()
	walked := 0
	for {
		if op.cpuBusy == 1 {
			remCPU -= float64(op.rateCPU * dt)
		}
		if op.gpuBusy == 1 {
			remGPU -= float64(op.rateGPU * dt)
		}
		l0 := power.Leakage(leak.base[0], leak.coeff[0], t[n0])
		l1 := power.Leakage(leak.base[1], leak.coeff[1], t[n1])
		l2 := power.Leakage(leak.base[2], leak.coeff[2], t[n2])
		p[n0], p[n1], p[n2] = d0+l0, d1+l1, d2+l2
		t0, t1, t2, t3 := t[0], t[1], t[2], t[3]
		p0, p1, p2, p3 := p[0], p[1], p[2], p[3]
		t[0] = thermal.Row4(ga0, a0, b0, t0, t1, t2, t3, p0, p1, p2, p3)
		t[1] = thermal.Row4(ga1, a1, b1, t0, t1, t2, t3, p0, p1, p2, p3)
		t[2] = thermal.Row4(ga2, a2, b2, t0, t1, t2, t3, p0, p1, p2, p3)
		t[3] = thermal.Row4(ga3, a3, b3, t0, t1, t2, t3, p0, p1, p2, p3)
		for i := range peak {
			if t[i] > peak[i] {
				peak[i] = t[i]
			}
		}
		walked++
		last := walked == n || e.tmuFiresAt(t[big])
		if e.timeTicks == nextRec || e.timeTicks == km || last {
			if err := e.therm.SetTemps(t[:]); err != nil {
				return walked, err
			}
			e.bd.LeakageW[0], e.bd.LeakageW[1], e.bd.LeakageW[2] = l0, l1, l2
			copy(e.peakC, peak[:])
			if e.timeTicks == km {
				if err := e.latch(); err != nil {
					return walked, err
				}
				km = e.meterTick()
			}
			if e.timeTicks == nextRec {
				if err := e.record(e.bd.TotalW()); err != nil {
					return walked, err
				}
				nextRec += e.recEvery
			}
		}
		e.timeTicks++
		if last {
			break
		}
	}
	e.remCPU, e.remGPU = remCPU, remGPU
	return walked, nil
}

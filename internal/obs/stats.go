package obs

import (
	"fmt"
	"strings"
	"time"
)

// RunStats is the engine flight recorder: plain int64 counters embedded
// by value in sim.Engine and incremented with ordinary ++ on the tick
// and superstep paths, so instrumentation adds zero allocations and
// stays clean under the teemvet hotpath analyzer. Per-phase wall time
// is opt-in: the nanos fields stay zero unless the caller supplied a
// clock (sim.Config.Clock), so a default run performs no clock reads
// and remains deterministic.
type RunStats struct {
	// Time advancement: plain ticks versus superstep jumps. Ticks +
	// SuperstepTicks is the simulated span advanced.
	Ticks          int64 // single-dt engine ticks executed, walked ones included
	WalkedTicks    int64 // of Ticks, those replayed by a steady walk
	Supersteps     int64 // successful multi-tick jumps, record segments included
	SuperstepTicks int64 // ticks covered by those jumps
	SegmentTicks   int64 // of SuperstepTicks, those advanced in record segments
	MaxJump        int64 // longest single jump, in ticks

	// Per-reason superstep guard rejections: why a jump did NOT fire.
	RejectEvent    int64 // scenario event or horizon too close
	RejectGovernor int64 // governor epoch boundary or unstable epoch
	RejectMeter    int64 // meter instant a span would start on, or whose closed-form sample a segment left to the walk (rounding guard band)
	RejectWork     int64 // a busy work chunk depletes inside the span
	RejectMixed    int64 // trajectory direction mixed (near equilibrium)
	RejectTMU      int64 // thermal protection tripped or trip risk
	RejectLeakage  int64 // leakage linearisation regime boundary

	// Cache effectiveness.
	PropCacheHits   int64 // tick propagator: kept by the engine's shared system (hit) or computed (miss)
	PropCacheMisses int64
	JumpBlockHits   int64 // shared modal jump forms: reused (hit) or eigensolved (miss)
	JumpBlockMisses int64
	PoolHits        int64 // engine's jump map: already held the new operating point's leakage slope (hit) or was built or rebound (miss)
	PoolMisses      int64

	// Control-plane events.
	GovernorEpochs int64 // governor invocations
	TMUTrips       int64 // thermal throttle engagements
	TMUReleases    int64 // throttle releases

	// Opt-in per-phase wall time (zero unless a clock was supplied).
	ThermalNanos  int64
	PowerNanos    int64
	GovernorNanos int64
	QueueNanos    int64
}

// Add folds o into s; used to aggregate flight recorders across grid
// cells or load-generator runs.
func (s *RunStats) Add(o RunStats) {
	s.Ticks += o.Ticks
	s.WalkedTicks += o.WalkedTicks
	s.Supersteps += o.Supersteps
	s.SuperstepTicks += o.SuperstepTicks
	s.SegmentTicks += o.SegmentTicks
	if o.MaxJump > s.MaxJump {
		s.MaxJump = o.MaxJump
	}
	s.RejectEvent += o.RejectEvent
	s.RejectGovernor += o.RejectGovernor
	s.RejectMeter += o.RejectMeter
	s.RejectWork += o.RejectWork
	s.RejectMixed += o.RejectMixed
	s.RejectTMU += o.RejectTMU
	s.RejectLeakage += o.RejectLeakage
	s.PropCacheHits += o.PropCacheHits
	s.PropCacheMisses += o.PropCacheMisses
	s.JumpBlockHits += o.JumpBlockHits
	s.JumpBlockMisses += o.JumpBlockMisses
	s.PoolHits += o.PoolHits
	s.PoolMisses += o.PoolMisses
	s.GovernorEpochs += o.GovernorEpochs
	s.TMUTrips += o.TMUTrips
	s.TMUReleases += o.TMUReleases
	s.ThermalNanos += o.ThermalNanos
	s.PowerNanos += o.PowerNanos
	s.GovernorNanos += o.GovernorNanos
	s.QueueNanos += o.QueueNanos
}

// Rejections is the total number of superstep guard rejections.
func (s *RunStats) Rejections() int64 {
	return s.RejectEvent + s.RejectGovernor + s.RejectMeter +
		s.RejectWork + s.RejectMixed + s.RejectTMU + s.RejectLeakage
}

// String renders the flight recorder as an indented multi-line block,
// the form teemscenario -stats and teemd load -stats print.
func (s *RunStats) String() string {
	var b strings.Builder
	total := s.Ticks + s.SuperstepTicks
	fmt.Fprintf(&b, "time: %d ticks advanced (%d stepped (%d walked), %d jumped (%d in segments) in %d supersteps, max jump %d)\n",
		total, s.Ticks, s.WalkedTicks, s.SuperstepTicks, s.SegmentTicks, s.Supersteps, s.MaxJump)
	fmt.Fprintf(&b, "superstep rejections: event %d  governor-epoch %d  meter %d  work %d  mixed-direction %d  tmu %d  leakage-regime %d\n",
		s.RejectEvent, s.RejectGovernor, s.RejectMeter, s.RejectWork, s.RejectMixed, s.RejectTMU, s.RejectLeakage)
	fmt.Fprintf(&b, "caches (hit/miss): propagator %d/%d  jump-block %d/%d  superstep-pool %d/%d\n",
		s.PropCacheHits, s.PropCacheMisses, s.JumpBlockHits, s.JumpBlockMisses, s.PoolHits, s.PoolMisses)
	fmt.Fprintf(&b, "control: governor epochs %d  tmu trips %d  releases %d",
		s.GovernorEpochs, s.TMUTrips, s.TMUReleases)
	if wall := s.ThermalNanos + s.PowerNanos + s.GovernorNanos + s.QueueNanos; wall > 0 {
		fmt.Fprintf(&b, "\nphase wall: thermal %s  power %s  governor %s  queue %s",
			time.Duration(s.ThermalNanos), time.Duration(s.PowerNanos),
			time.Duration(s.GovernorNanos), time.Duration(s.QueueNanos))
	}
	return b.String()
}

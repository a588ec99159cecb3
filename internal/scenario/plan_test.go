package scenario

import (
	"fmt"
	"strings"
	"testing"

	"teem/internal/governor"
	"teem/internal/mapping"
	"teem/internal/sim"
)

// pinnedGovernors is a custom registry entry: a name the stock registry
// lacks, accepted only through Config.Governors.
var pinnedGovernors = map[string]GovernorFactory{
	"pinned": func() sim.Governor { return governor.Powersave{} },
}

// orderingScenario covers every same-tick ordering case of the timeline
// compiler. Its first ambient event ramps to 28 °C, the idle ambient of
// exynos5422 (one event there) but not of harrier-s16 (25 °C, 50 steps
// at 2.1–7.0 s), so the ramp's steps share ticks with an arrival (2.5 s),
// a tagged and an untagged departure (3 s), a custom governor switch and
// an assertion (4 s) on harrier-s16 only. A second ramp chains from the
// first's end and overlaps it on harrier-s16; its steps (5.1–9 s) share
// ticks with a partition switch, an arrival, an assertion, a governor
// switch, an ambient step and a mapping switch on every platform. One
// assertion and one final check name an unknown node. Both SYRK jobs
// finish before either departure, so the first departure finds nothing
// to cancel and the second none left to try.
func orderingScenario() *Scenario {
	part := func(n int) *mapping.Partition { return &mapping.Partition{Num: n, Den: 8} }
	return &Scenario{
		Name:     "ordering",
		Map:      mapping.Mapping{Big: 4, Little: 2, UseGPU: true},
		HorizonS: 170,
		Events: []Event{
			{AtS: 2, Kind: KindAmbient, ToC: 28, RampS: 5},
			{AtS: 0, Kind: KindArrival, App: "COVARIANCE", Part: part(4), DeadlineS: 20},
			{AtS: 2.5, Kind: KindArrival, App: "MVT", Job: "a", Priority: 2},
			{AtS: 2.5, Kind: KindArrival, App: "MVT"},
			{AtS: 3, Kind: KindDeparture, App: "MVT", Job: "a"},
			{AtS: 3, Kind: KindDeparture, App: "MVT"},
			{AtS: 4, Kind: KindGovernor, Governor: "pinned"},
			{AtS: 4, Kind: KindAssert, Node: NodeBig, MaxC: 30},
			{AtS: 5, Kind: KindAmbient, ToC: 40, RampS: 4},
			{AtS: 6, Kind: KindAssert, Node: "nosuch", MaxC: 90},
			{AtS: 6.2, Kind: KindPartition, Part: part(2)},
			{AtS: 7, Kind: KindArrival, App: "GEMM", DeadlineS: 1},
			{AtS: 7.5, Kind: KindAssert, Node: NodeLittle, MaxC: 31},
			{AtS: 8, Kind: KindGovernor, Governor: "teem"},
			{AtS: 8.5, Kind: KindDeparture, App: "GEMM"},
			{AtS: 9, Kind: KindAmbient, ToC: 35},
			{AtS: 9, Kind: KindMapping, Map: &mapping.Mapping{Big: 2, Little: 2, UseGPU: true}},
			{AtS: 12, Kind: KindAssert, Node: NodeGPU, MaxC: 200},
			{AtS: 14, Kind: KindArrival, App: "SYRK", Job: "s", Priority: 3},
			{AtS: 14, Kind: KindArrival, App: "SYRK", Priority: 3},
			{AtS: 150, Kind: KindDeparture, App: "SYRK"},
			{AtS: 160, Kind: KindDeparture, App: "SYRK"},
		},
		Final: []FinalCheck{
			{Node: NodePkg, PeakMaxC: 40},
			{Node: "ghost", PeakMaxC: 50},
			{Completed: true},
			{MaxExecS: 5},
		},
	}
}

// orderingReport renders a grid of orderingScenario with every cell's
// flight-recorder counters. The propagator and modal-form cache counts
// depend on what ran before in the process, so they are left out.
func orderingReport(g *PlatformGridResult) string {
	var b strings.Builder
	b.WriteString(g.Render())
	for pi, plane := range g.Cells {
		for si, row := range plane {
			for gi, c := range row {
				st := c.Sim.Stats
				st.PropCacheHits, st.PropCacheMisses, st.JumpBlockHits, st.JumpBlockMisses = 0, 0, 0, 0
				fmt.Fprintf(&b, "%s/%s/%s: %+v\n", g.Platforms[pi], g.Scenarios[si], g.Governors[gi], st)
			}
		}
	}
	return b.String()
}

// The timeline compiler fires same-tick events in the order the engine
// registered them before it compiled scenarios: orderingScenario's grid
// rows, violations and counters on exynos5422 and harrier-s16 equal the
// golden, which was recorded before the compiler existed.
func TestOrderingGolden(t *testing.T) {
	rc := Config{Governors: pinnedGovernors}
	g, err := RunPlatformGrid([]string{"exynos5422", "harrier-s16"}, []*Scenario{orderingScenario()},
		[]string{"ondemand", "teem", "pinned"}, rc, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "ordering.golden", orderingReport(g))
}

// bindOn compiles sc against the stock governors and binds it on hw.
func bindOn(tb testing.TB, sc *Scenario, hw hardware) *bound {
	tb.Helper()
	p, err := compile(sc, stockGovernors)
	if err != nil {
		tb.Fatal(err)
	}
	return p.bind(hw)
}

// cloneScenario deep-copies sc, the partitions and mappings its events
// point at included.
func cloneScenario(sc *Scenario) *Scenario {
	c := *sc
	c.Events = append([]Event(nil), sc.Events...)
	for i := range c.Events {
		if p := c.Events[i].Part; p != nil {
			cp := *p
			c.Events[i].Part = &cp
		}
		if m := c.Events[i].Map; m != nil {
			cm := *m
			c.Events[i].Map = &cm
		}
	}
	c.Final = append([]FinalCheck(nil), sc.Final...)
	return &c
}

// A scenario that fails validation fails every cell of its row with the
// same error, on every platform and under every governor, while the
// valid scenario beside it runs.
func TestGridInvalidScenarioEveryCell(t *testing.T) {
	bad := Sunlight()
	bad.Name = "bad-ramp"
	bad.Events = append(bad.Events, Event{AtS: 1, Kind: KindAmbient, ToC: 40, RampS: -1})
	want := "error: scenario bad-ramp: event " + fmt.Sprint(len(bad.Events)-1) + ": negative ramp"
	for _, workers := range []int{1, 3} {
		g, err := RunPlatformGrid([]string{"exynos5422", "harrier-s16"}, []*Scenario{CoreLoss(), bad},
			[]string{"ondemand", "teem"}, Config{}, workers)
		if err != nil {
			t.Fatal(err)
		}
		for pi, plat := range g.Platforms {
			for gi, gov := range g.Governors {
				r := g.Cells[pi][1][gi]
				if r.Sim != nil || r.Platform != plat || r.Scenario != "bad-ramp" || r.Governor != gov ||
					len(r.Violations) != 1 || r.Violations[0] != want {
					t.Errorf("workers=%d: %s/bad-ramp/%s = %+v, want the violation %q", workers, plat, gov, r, want)
				}
				if ok := g.Cells[pi][0][gi]; ok.Sim == nil || !ok.Passed() {
					t.Errorf("workers=%d: %s/core-loss/%s = %+v", workers, plat, gov, ok)
				}
			}
		}
	}
}

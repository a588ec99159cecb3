package scenario

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"testing"

	"teem/internal/platform"
	"teem/internal/workload"
)

// FuzzSuperstepContract is the engine oracle of docs/integrators.md: it
// decodes the input into a bounded scenario on a catalog platform, runs
// it with and without supersteps, and asserts every clause of the
// integrator contract between the two runs. The seed corpus is every
// preset (cut to the decoder's bounds) on every catalog platform, so a
// plain `go test` replays those seeds; `go test -fuzz` explores further.
func FuzzSuperstepContract(f *testing.F) {
	for p := range platform.Names() {
		for _, sc := range Presets() {
			f.Add(encodeContractCase(p, sc))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		plat, sc := decodeContractCase(t, data)
		rJ, err := Run(sc, Config{PlatformName: plat})
		if err != nil {
			t.Fatalf("%s on %s: %v", sc.Name, plat, err)
		}
		rF, err := Run(sc, Config{PlatformName: plat, DisableSuperstep: true})
		if err != nil {
			t.Fatalf("%s on %s without supersteps: %v", sc.Name, plat, err)
		}
		assertSuperstepContract(t, rJ, rF)
	})
}

// FuzzScenarioLoad fuzzes the scenario decoder, seeded with every preset
// as Save writes it. Load must not panic, and a scenario it accepts must
// compile and bind to the default platform's plane, its engine events in
// firing order, so that every timeline Validate accepts can run. It must
// also save to a canonical form: that output loads again and saves to
// the same bytes, since it is what teemd hashes for its result cache
// key. Bytes are compared, not decoded values: "final": [] decodes to a
// non-nil empty slice but saves as omitted.
func FuzzScenarioLoad(f *testing.F) {
	for _, sc := range Presets() {
		var buf bytes.Buffer
		if err := sc.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	hw := bundleHardware(platform.Default())
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		p, err := compile(sc, stockGovernors)
		if err != nil {
			t.Fatalf("Load accepted a scenario that does not compile: %v", err)
		}
		b := p.bind(hw)
		for i, en := range b.entries {
			if en.tick < 0 || i > 0 && en.tick < b.entries[i-1].tick {
				t.Fatalf("engine event %d at tick %d is out of firing order", i, en.tick)
			}
		}
		var saved, resaved bytes.Buffer
		if err := sc.Save(&saved); err != nil {
			t.Fatalf("saving an accepted scenario: %v", err)
		}
		again, err := Load(bytes.NewReader(saved.Bytes()))
		if err != nil {
			t.Fatalf("Load rejects what Save wrote: %v\n%s", err, saved.Bytes())
		}
		if err := again.Save(&resaved); err != nil {
			t.Fatalf("saving a reloaded scenario: %v", err)
		}
		if !bytes.Equal(saved.Bytes(), resaved.Bytes()) {
			t.Fatalf("saved form is not canonical:\n%s\nsaves again as\n%s", saved.Bytes(), resaved.Bytes())
		}
	})
}

// The encoded case is a fixed layout of contractCaseLen bytes; a shorter
// input reads as zero-padded and extra bytes are ignored:
//
//	0      platform (index into platform.Names)
//	1      initial governor (index into GovernorNames)
//	2      mapping: big cores in bits 0–2, LITTLE in bits 3–5, GPU unless bit 6
//	3      horizon, 10 + b%111 seconds
//	4      arrivals, 1 + b%4
//	5–20   per arrival: app, time, priority (b%4), hold before departing (0: never)
//	21–22  ambient step: time (0: none), target 15 + b%31 °C
//	23–24  governor switch: time (0: none), governor
//
// Times are b/256 of the horizon; a hold is added to its arrival time.
const (
	contractCaseLen = 25
	caseArrivals    = 5
	caseAmbient     = 21
	caseGovernor    = 23
	maxCaseArrivals = 4
)

// decodeContractCase turns fuzz input into a catalog platform name and a
// scenario within the oracle's bounds: at most four arrivals of catalog
// apps with priorities and optional departures, an ambient step, a
// governor switch, and a horizon of at most 120 s. Every input decodes to
// a scenario that validates on its platform.
func decodeContractCase(t *testing.T, data []byte) (string, *Scenario) {
	t.Helper()
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	names := platform.Names()
	name := names[at(0)%len(names)]
	b, err := platform.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	govs := GovernorNames()
	apps := workload.Apps()
	sc := &Scenario{
		Name:     "fuzz",
		Governor: govs[at(1)%len(govs)],
		HorizonS: float64(10 + at(3)%111),
	}
	sc.Map.Big = (at(2) & 7) % (b.SoC.Big().NumCores + 1)
	sc.Map.Little = (at(2) >> 3 & 7) % (b.SoC.Little().NumCores + 1)
	sc.Map.UseGPU = at(2)&64 == 0 || sc.Map.CPUCores() == 0
	when := func(b int) float64 { return float64(b) * sc.HorizonS / 256 }
	for i := 0; i < 1+at(4)%maxCaseArrivals; i++ {
		o := caseArrivals + 4*i
		app, job := apps[at(o)%len(apps)].Name, fmt.Sprintf("j%d", i)
		arrive := when(at(o + 1))
		sc.Events = append(sc.Events, Event{AtS: arrive, Kind: KindArrival, App: app, Priority: at(o+2) % 4, Job: job})
		if hold := at(o + 3); hold != 0 {
			sc.Events = append(sc.Events, Event{AtS: arrive + when(hold), Kind: KindDeparture, App: app, Job: job})
		}
	}
	if tb := at(caseAmbient); tb != 0 {
		sc.Events = append(sc.Events, Event{AtS: when(tb), Kind: KindAmbient, ToC: float64(15 + at(caseAmbient+1)%31)})
	}
	if tb := at(caseGovernor); tb != 0 {
		sc.Events = append(sc.Events, Event{AtS: when(tb), Kind: KindGovernor, Governor: govs[at(caseGovernor+1)%len(govs)]})
	}
	return name, sc
}

// encodeContractCase is decodeContractCase's inverse up to its bounds: a
// preset on the p-th catalog platform, keeping its mapping, its first
// four arrivals with their departures, its first ambient change (a ramp
// becomes a step) and its first governor switch, with the horizon
// clamped to 10–120 s.
func encodeContractCase(p int, sc *Scenario) []byte {
	buf := make([]byte, contractCaseLen)
	buf[0] = byte(p)
	buf[1] = byte(max(slices.Index(GovernorNames(), sc.Governor), 0))
	buf[2] = byte(sc.Map.Big&7 | (sc.Map.Little&7)<<3)
	if !sc.Map.UseGPU {
		buf[2] |= 64
	}
	horizon := min(max(sc.HorizonS, sc.EndS(), 10), 120)
	buf[3] = byte(horizon - 10)
	horizon = float64(10 + int(buf[3]))
	tb := func(s float64) byte { return byte(min(max(s*256/horizon, 0), 255)) }
	events := slices.Clone(sc.Events)
	slices.SortStableFunc(events, func(a, b Event) int { return cmp.Compare(a.AtS, b.AtS) })
	n := 0
	for i, ev := range events {
		if ev.Kind != KindArrival || n == maxCaseArrivals {
			continue
		}
		o := caseArrivals + 4*n
		n++
		buf[o] = byte(slices.IndexFunc(workload.Apps(), func(a *workload.App) bool { return a.Name == ev.App }))
		buf[o+1] = tb(ev.AtS)
		buf[o+2] = byte(ev.Priority % 4)
		for _, dep := range events[i+1:] {
			if dep.Kind == KindDeparture && dep.App == ev.App && dep.Job == ev.Job {
				buf[o+3] = max(tb(dep.AtS-ev.AtS), 1)
				break
			}
		}
	}
	buf[4] = byte(n - 1)
	for _, ev := range events {
		switch {
		case ev.Kind == KindAmbient && buf[caseAmbient] == 0:
			buf[caseAmbient] = max(tb(ev.AtS), 1)
			buf[caseAmbient+1] = byte(min(max(ev.ToC-15, 0), 30))
		case ev.Kind == KindGovernor && buf[caseGovernor] == 0:
			buf[caseGovernor] = max(tb(ev.AtS), 1)
			buf[caseGovernor+1] = byte(max(slices.Index(GovernorNames(), ev.Governor), 0))
		}
	}
	return buf
}

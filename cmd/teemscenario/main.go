// Command teemscenario runs declarative dynamic-workload scenarios —
// application arrivals with priorities and deadlines (higher priority
// preempts), departures that cancel queued or live jobs, ambient steps
// and ramps, mid-run governor / partition / mapping switches — against
// the simulated platform, fanning the scenario × governor grid across a
// bounded worker pool. Assertion violations are reported and reflected in
// the exit code, so scenario files double as an executable regression
// corpus (`make scenario-gate` runs the preset corpus in CI).
//
// Hardware is an axis: -platform selects one platform from the builtin
// catalog (by name) or a bundle JSON file, and -platforms fans the same
// corpus out as a platform × scenario × governor grid ("all" sweeps the
// whole catalog — `make platform-gate`).
//
// Recorded arrival logs replay as scenarios via -replay: each record
// (app, at_s, priority, deadline_s, hold_s) becomes an arrival — plus a
// departure when the tenant's hold expires — compiled to the same
// deterministic timeline a hand-authored scenario uses.
//
// Usage:
//
//	teemscenario -preset rush-hour -govs ondemand,teem
//	teemscenario -f sunlight.json -govs teem -workers 4
//	teemscenario -platform merlin-m3 -govs teem
//	teemscenario -platforms all -govs ondemand,teem
//	teemscenario -replay trace.json -govs teem
//	teemscenario -preset sparse-replay -supersteps=false   # force tick-by-tick
//	teemscenario -list
//	teemscenario -preset sunlight -dump          # print the JSON schema by example
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"teem/internal/buildinfo"
	"teem/internal/obs"
	"teem/internal/platform"
	"teem/internal/scenario"
	"teem/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("teemscenario: ")

	var (
		files      = flag.String("f", "", "comma-separated scenario JSON files")
		replay     = flag.String("replay", "", "comma-separated recorded arrival-log JSON files to replay as scenarios")
		preset     = flag.String("preset", "", "built-in scenario: sunlight, rush-hour, core-loss, preempt-storm, tenant-churn, replay-sample, sparse-replay (empty with -f)")
		govs       = flag.String("govs", "", "comma-separated governors to grid over (default: the union of the scenarios' initial policies)")
		workers    = flag.Int("workers", 0, "worker pool bound (0 = one per CPU, 1 = serial)")
		integrator = flag.String("integrator", "exact", "thermal integrator: exact or euler")
		supersteps = flag.Bool("supersteps", true, "jump provably steady intervals in one exact propagator application (exact integrator only)")
		platRef    = flag.String("platform", "", "platform: builtin catalog name or bundle JSON file (default exynos5422)")
		platforms  = flag.String("platforms", "", `comma-separated catalog platforms to grid over, or "all" for the whole catalog`)
		stats      = flag.Bool("stats", false, "print the per-cell engine flight recorder (tick/superstep counts, cache hits, phase wall time) after the grid")
		list       = flag.Bool("list", false, "list built-in presets, platforms and governors, then exit")
		dump       = flag.Bool("dump", false, "print the selected scenarios as JSON, then exit")
		version    = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("teemscenario"))
		return
	}

	if *list {
		fmt.Println("presets:")
		for _, s := range scenario.Presets() {
			fmt.Printf("  %-10s %d events, horizon %gs\n", s.Name, len(s.Events), s.EndS())
		}
		fmt.Println("platforms:")
		for _, name := range platform.Names() {
			b, err := platform.Get(name)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-12s %-6s %s\n", name, b.Class, b.Description)
		}
		fmt.Printf("governors: %s\n", strings.Join(scenario.GovernorNames(), ", "))
		return
	}

	var scs []*scenario.Scenario
	if *files != "" {
		for _, path := range strings.Split(*files, ",") {
			f, err := os.Open(strings.TrimSpace(path))
			if err != nil {
				log.Fatal(err)
			}
			s, err := scenario.Load(f)
			f.Close()
			if err != nil {
				log.Fatalf("%s: %v", path, err)
			}
			scs = append(scs, s)
		}
	}
	if *replay != "" {
		for _, path := range strings.Split(*replay, ",") {
			f, err := os.Open(strings.TrimSpace(path))
			if err != nil {
				log.Fatal(err)
			}
			tr, err := scenario.LoadTrace(f)
			f.Close()
			if err != nil {
				log.Fatalf("%s: %v", path, err)
			}
			s, err := scenario.FromTrace(tr)
			if err != nil {
				log.Fatalf("%s: %v", path, err)
			}
			scs = append(scs, s)
		}
	}
	if *preset != "" {
		s := scenario.PresetByName(*preset)
		if s == nil {
			log.Fatalf("unknown preset %q (try -list)", *preset)
		}
		scs = append(scs, s)
	}
	if len(scs) == 0 {
		scs = scenario.Presets()
	}

	if *dump {
		for _, s := range scs {
			if err := s.Save(os.Stdout); err != nil {
				log.Fatal(err)
			}
		}
		return
	}

	rc := scenario.Config{DisableSuperstep: !*supersteps}
	if *stats {
		// Opt in to per-phase wall timing: the flight-recorder counters
		// are always on, the clock reads only with -stats.
		rc.Clock = obs.Nanotime
	}
	switch *integrator {
	case "exact":
		rc.Integrator = sim.IntegratorExact
	case "euler":
		rc.Integrator = sim.IntegratorEuler
	default:
		log.Fatalf("unknown integrator %q (want exact or euler)", *integrator)
	}
	if *platforms != "" && *platRef != "" {
		log.Fatal("-platforms owns the platform axis; it cannot combine with -platform")
	}
	// Catalog name or bundle file. Resolve it here, as teemsim and teemcal
	// do, so a bad reference fails with its own error before the grid
	// runs; the scenario layer resolves the name again for each cell.
	if *platRef != "" {
		if _, err := platform.Resolve(*platRef); err != nil {
			log.Fatal(err)
		}
	}
	rc.PlatformName = *platRef

	var governors []string
	if *govs != "" {
		for _, g := range strings.Split(*govs, ",") {
			governors = append(governors, strings.TrimSpace(g))
		}
	}
	if len(governors) == 0 {
		governors = scenario.DefaultGovernors(scs)
	}

	// A nil platform list runs on the hardware selected above.
	var plats []string
	if *platforms == "all" {
		plats = platform.Names()
	} else if *platforms != "" {
		for _, p := range strings.Split(*platforms, ",") {
			plats = append(plats, strings.TrimSpace(p))
		}
	}
	var grid *scenario.PlatformGridResult
	var err error
	if plats != nil {
		grid, err = scenario.RunPlatformGrid(plats, scs, governors, rc, *workers)
	} else {
		grid, err = scenario.RunGrid(scs, governors, rc, *workers)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(grid.Render())
	if *stats {
		var cells []*scenario.Result
		for _, plane := range grid.Cells {
			for _, row := range plane {
				cells = append(cells, row...)
			}
		}
		printStats(cells)
	}
	if n := grid.Violations(); n > 0 {
		log.Fatalf("%d assertion violation(s)", n)
	}
}

// printStats renders each cell's engine flight recorder plus the grid
// aggregate. Cells that errored before producing a result are skipped.
func printStats(cells []*scenario.Result) {
	var agg obs.RunStats
	for _, r := range cells {
		if r == nil || r.Sim == nil {
			continue
		}
		fmt.Printf("\nflight recorder: %s under %s on %s\n", r.Scenario, r.Governor, r.Platform)
		fmt.Print(indent(r.Sim.Stats.String()))
		agg.Add(r.Sim.Stats)
	}
	fmt.Print("\nflight recorder: grid aggregate\n")
	fmt.Print(indent(agg.String()))
}

// indent prefixes every line with two spaces for the stats blocks.
func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = "  " + l
	}
	return strings.Join(lines, "\n") + "\n"
}

// Multiapp: a dynamic multi-application session on one chip — the online
// situation the paper's manager exists for. Three Polybench applications
// arrive over time (GEMM lands while COVARIANCE still runs and queues
// behind it; SYRK arrives back-to-back later), a high-priority MVT burst
// preempts the session mid-run and a tenant departs with its job half
// done, the ambient steps up, and each job's completion or cancellation
// is tracked. The same scenario is run under ondemand+TMU and under the
// TEEM controller; the Fig. 5 static per-app comparison lives in
// examples/motivation and `teemreport`.
package main

import (
	"fmt"
	"log"

	"teem"
)

func main() {
	log.SetFlags(0)

	sc, err := teem.NewScenario("session").
		ArriveDefault(0, "COVARIANCE").
		ArriveDefault(5, "GEMM").     // overlapping arrival: queues
		ArrivePriority(20, "MVT", 2). // urgent burst: preempts the live job
		Depart(70, "GEMM").           // tenant leaves mid-job; unfinished work is dropped
		ArriveDefault(90, "SYRK").
		AmbientStep(30, 38). // afternoon heat
		AssertPeakBelow("A15", 97).
		RequireCompletion().
		Build()
	if err != nil {
		log.Fatal(err)
	}

	grid, err := teem.RunScenarioGrid(
		[]*teem.Scenario{sc},
		[]string{"ondemand", "teem"},
		teem.ScenarioConfig{},
		0,
	)
	if err != nil {
		log.Fatal(err)
	}
	// A cell whose run errors out carries the error as its violation
	// with no sim result — fail loudly instead of dereferencing nil.
	for _, cell := range grid.Cells[0][0] {
		if cell.Sim == nil {
			log.Fatalf("%s under %s failed: %v", cell.Scenario, cell.Governor, cell.Violations)
		}
	}

	fmt.Println("arrivals at t=0, 5, 90 s, a prio-2 MVT burst at t=20 s preempting the")
	fmt.Println("live job, a GEMM departure at t=70 s, and an ambient step to 38 °C:")
	fmt.Println()
	fmt.Print(grid.Render())
	fmt.Println()
	for _, cell := range grid.Cells[0][0] {
		fmt.Printf("%s job completions:\n", cell.Governor)
		for _, jf := range cell.Sim.JobFinishes {
			fmt.Printf("  %-12s finished at t=%6.1f s\n", jf.App, jf.AtS)
		}
		for _, jc := range cell.Sim.JobCancels {
			fmt.Printf("  %-12s departed at t=%6.1f s with %2.0f%% of its work done\n",
				jc.App, jc.AtS, 100*jc.DoneFrac)
		}
	}
	fmt.Println()

	od := grid.Cell("", "session", "ondemand")
	tm := grid.Cell("", "session", "teem")
	fmt.Printf("TEEM vs ondemand over the whole session: energy %+.1f%%, peak %+.1f °C, trips %d vs %d\n",
		100*(tm.Sim.EnergyJ-od.Sim.EnergyJ)/od.Sim.EnergyJ,
		tm.Sim.PeakTempC-od.Sim.PeakTempC,
		tm.Sim.ThrottleEvents, od.Sim.ThrottleEvents)
}

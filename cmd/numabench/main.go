// Command numabench runs parameterized sweeps of the co-scheduling
// benchmark — the full evaluation grid behind the paper's Table III —
// and prints aligned tables, bar charts, or CSV for plotting.
//
// Sweeps:
//
//	numabench -sweep allocation   # all uniform per-node allocations of a 4-app mix
//	numabench -sweep ai           # one app's AI swept across the roofline ridge
//	numabench -sweep curve        # the machine's roofline curve
//	numabench -sweep policies     # agent policies on the Table I mix
//	-machine skylake              # any machine preset (default paper-model)
//	-csv                          # CSV instead of a table
//	-sim                          # also run the simulator per point (slower)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/osched"
	"repro/internal/roofline"
	"repro/internal/taskrt"
	"repro/internal/workload"
)

func main() {
	sweep := flag.String("sweep", "allocation", "sweep kind: allocation | ai | curve | policies")
	machineName := flag.String("machine", "paper-model", "machine preset: "+strings.Join(machine.PresetNames(), " | "))
	csv := flag.Bool("csv", false, "emit CSV")
	withSim := flag.Bool("sim", false, "also run the simulator per point")
	flag.Parse()

	m, err := machine.Preset(*machineName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "numabench: %v\n", err)
		os.Exit(2)
	}

	switch *sweep {
	case "allocation":
		sweepAllocations(m, *csv, *withSim)
	case "ai":
		sweepAI(m, *csv)
	case "curve":
		sweepCurve(m, *csv)
	case "policies":
		sweepPolicies(m, *csv)
	default:
		fmt.Fprintf(os.Stderr, "numabench: unknown sweep %q\n", *sweep)
		os.Exit(2)
	}
}

// paperMix is the Table I/II application set scaled to the machine.
func paperMix() []roofline.App {
	return []roofline.App{
		{Name: "mem1", AI: 0.5}, {Name: "mem2", AI: 0.5}, {Name: "mem3", AI: 0.5}, {Name: "comp", AI: 10},
	}
}

func emit(t *metrics.Table, csv bool) {
	if csv {
		fmt.Print(t.CSV())
	} else {
		fmt.Println(t)
	}
}

func sweepAllocations(m *machine.Machine, csv, withSim bool) {
	apps := paperMix()
	headers := []string{"mem1", "mem2", "mem3", "comp", "model GFLOPS"}
	if withSim {
		headers = append(headers, "sim GFLOPS")
	}
	t := metrics.NewTable("all full uniform per-node allocations", headers...)
	var best []int
	bestVal := -1.0
	err := roofline.EnumeratePerNodeCounts(m, len(apps), func(counts []int, al roofline.Allocation, r *roofline.Result) bool {
		sum := 0
		for _, c := range counts {
			sum += c
		}
		if sum != m.Nodes[0].Cores {
			return true // only fully-packed allocations
		}
		row := []any{counts[0], counts[1], counts[2], counts[3], r.TotalGFLOPS}
		if withSim {
			s := &core.Scenario{
				Machine: m,
				Apps: []core.AppConfig{
					{Name: "mem1", AI: 0.5}, {Name: "mem2", AI: 0.5},
					{Name: "mem3", AI: 0.5}, {Name: "comp", AI: 10},
				},
				Allocation: al,
			}
			s.Sim.Duration = 0.2
			sim, err := s.RunSim()
			if err != nil {
				fmt.Fprintln(os.Stderr, "numabench:", err)
				os.Exit(1)
			}
			row = append(row, sim.TotalGFLOPS)
		}
		t.AddRow(row...)
		if r.TotalGFLOPS > bestVal {
			bestVal, best = r.TotalGFLOPS, counts
		}
		return true
	}, apps)
	if err != nil {
		fmt.Fprintln(os.Stderr, "numabench:", err)
		os.Exit(1)
	}
	emit(t, csv)
	if !csv {
		fmt.Printf("best: %v -> %.1f GFLOPS\n", best, bestVal)
	}
}

// sweepAI varies the fourth application's arithmetic intensity across
// the ridge under the even and node-per-app allocations, exposing the
// ranking crossovers.
func sweepAI(m *machine.Machine, csv bool) {
	apps := paperMix()
	nApps := len(apps)
	even, err := roofline.Even(m, nApps)
	if err != nil {
		fmt.Fprintln(os.Stderr, "numabench:", err)
		os.Exit(1)
	}
	npa, err := roofline.NodePerApp(m, nApps, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "numabench:", err)
		os.Exit(1)
	}
	t := metrics.NewTable("fourth app's AI swept (others fixed at 0.5)",
		"AI", "even GFLOPS", "node-per-app GFLOPS", "winner")
	ai := 0.01
	for ai <= 100 {
		probe := append([]roofline.App(nil), apps...)
		probe[3].AI = ai
		re := roofline.MustEvaluate(m, probe, even)
		rn := roofline.MustEvaluate(m, probe, npa)
		winner := "even"
		if rn.TotalGFLOPS > re.TotalGFLOPS+1e-9 {
			winner = "node-per-app"
		} else if rn.TotalGFLOPS > re.TotalGFLOPS-1e-9 {
			winner = "tie"
		}
		t.AddRow(ai, re.TotalGFLOPS, rn.TotalGFLOPS, winner)
		ai *= 2
	}
	emit(t, csv)
}

// sweepCurve prints the machine's roofline curve as a table or chart.
func sweepCurve(m *machine.Machine, csv bool) {
	pts := roofline.Curve(m, 0.004, 64, 15)
	if csv {
		t := metrics.NewTable("", "ai", "gflops")
		for _, p := range pts {
			t.AddRow(p.AI, p.GFLOPS)
		}
		fmt.Print(t.CSV())
		return
	}
	labels := make([]string, len(pts))
	values := make([]float64, len(pts))
	for i, p := range pts {
		labels[i] = metrics.FormatFloat(p.AI)
		values[i] = p.GFLOPS
	}
	fmt.Print(metrics.BarChart(
		fmt.Sprintf("roofline of %s (ridge at AI=%.3f)", m.Name, roofline.Ridge(m)),
		labels, values, 50))
}

// sweepPolicies runs the Table I application mix under each agent
// policy on the simulator and reports aggregate throughput.
func sweepPolicies(m *machine.Machine, csv bool) {
	type entry struct {
		name string
		pol  func() agent.Policy
	}
	policies := []entry{
		{"none (over-subscribed)", nil},
		{"fair-share option 1", func() agent.Policy { return agent.FairShare{} }},
		{"fair-share option 3", func() agent.Policy { return agent.FairShare{PerNode: true} }},
		{"roofline oracle", func() agent.Policy {
			return &agent.RooflineOptimal{Specs: []agent.AppSpec{{AI: 0.5}, {AI: 0.5}, {AI: 0.5}, {AI: 10}}}
		}},
		{"adaptive roofline", func() agent.Policy { return &agent.AdaptiveRoofline{Warmup: 5} }},
		{"work-conserving", func() agent.Policy { return agent.WorkConserving{} }},
	}
	t := metrics.NewTable("agent policies on the Table I mix (1 simulated second)",
		"policy", "aggregate GFLOPS")
	var labels []string
	var values []float64
	for _, e := range policies {
		gflops := runPolicy(m, e.pol)
		t.AddRow(e.name, gflops)
		labels = append(labels, e.name)
		values = append(values, gflops)
	}
	emit(t, csv)
	if !csv {
		fmt.Print(metrics.BarChart("", labels, values, 40))
	}
}

func runPolicy(m *machine.Machine, mk func() agent.Policy) float64 {
	eng := des.NewEngine(1)
	o := osched.New(eng, osched.Config{Machine: m})
	o.Start()
	ais := []float64{0.5, 0.5, 0.5, 10}
	var rts []*taskrt.Runtime
	var clients []agent.Client
	for _, ai := range ais {
		rt := taskrt.New(o, taskrt.Config{Name: "app", BindMode: taskrt.BindNode})
		(&workload.Continuous{RT: rt, TaskGFlop: 0.02, AI: ai}).Start()
		rts = append(rts, rt)
		clients = append(clients, rt)
	}
	if mk != nil {
		agent.New(o, agent.Config{Period: 10 * des.Millisecond}, mk(), clients...).Start()
	}
	eng.RunUntil(1)
	total := 0.0
	for _, rt := range rts {
		total += rt.Stats().GFlopDone
	}
	return total
}

// Command numasim evaluates a co-scheduling scenario — a NUMA machine,
// a set of applications, and a per-NUMA-node thread allocation — with
// both the analytic roofline model and the discrete-event simulator,
// and can search for the best allocation.
//
// The scenario is described in JSON (see -example for a template):
//
//	numasim -config scenario.json
//	numasim -config scenario.json -optimize      # search allocations
//	numasim -example > scenario.json             # starter config
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/roofline"
)

// fileConfig is the JSON scenario schema.
type fileConfig struct {
	Machine struct {
		Preset        string  `json:"preset,omitempty"` // a machine.PresetNames name
		Nodes         int     `json:"nodes,omitempty"`
		CoresPerNode  int     `json:"cores_per_node,omitempty"`
		GFLOPSPerCore float64 `json:"gflops_per_core,omitempty"`
		NodeBandwidth float64 `json:"node_bandwidth,omitempty"`
		LinkBandwidth float64 `json:"link_bandwidth,omitempty"`
	} `json:"machine"`
	Apps []struct {
		Name     string  `json:"name"`
		AI       float64 `json:"ai"`
		NUMABad  bool    `json:"numa_bad,omitempty"`
		HomeNode int     `json:"home_node,omitempty"`
	} `json:"apps"`
	// Allocation[i] is app i's threads per node (uniform across nodes
	// if a single value is given).
	Allocation [][]int `json:"allocation"`
	// DurationSeconds is the simulated measurement window.
	DurationSeconds float64 `json:"duration_seconds,omitempty"`
}

const exampleConfig = `{
  "machine": {"preset": "paper-model"},
  "apps": [
    {"name": "mem1", "ai": 0.5},
    {"name": "mem2", "ai": 0.5},
    {"name": "mem3", "ai": 0.5},
    {"name": "comp", "ai": 10}
  ],
  "allocation": [[1,1,1,1], [1,1,1,1], [1,1,1,1], [5,5,5,5]],
  "duration_seconds": 1.0
}
`

func main() {
	configPath := flag.String("config", "", "scenario JSON file")
	optimize := flag.Bool("optimize", false, "search for the best allocation instead of using the configured one")
	example := flag.Bool("example", false, "print an example config and exit")
	modelOnly := flag.Bool("model-only", false, "skip the simulation")
	flag.Parse()

	if *example {
		fmt.Print(exampleConfig)
		return
	}
	if *configPath == "" {
		fmt.Fprintln(os.Stderr, "numasim: -config is required (see -example)")
		os.Exit(2)
	}
	data, err := os.ReadFile(*configPath)
	if err != nil {
		fail(err)
	}
	var fc fileConfig
	if err := json.Unmarshal(data, &fc); err != nil {
		fail(fmt.Errorf("parsing %s: %w", *configPath, err))
	}
	m, err := buildMachine(fc)
	if err != nil {
		fail(err)
	}
	apps := make([]core.AppConfig, len(fc.Apps))
	rapps := make([]roofline.App, len(fc.Apps))
	for i, a := range fc.Apps {
		apps[i] = core.AppConfig{Name: a.Name, AI: a.AI}
		if a.NUMABad {
			apps[i].Placement = roofline.NUMABad
			apps[i].HomeNode = machine.NodeID(a.HomeNode)
		}
		rapps[i] = apps[i].App()
	}

	if *optimize {
		runOptimize(m, rapps)
		return
	}

	al, err := buildAllocation(m, fc.Allocation, len(apps))
	if err != nil {
		fail(err)
	}
	s := &core.Scenario{Machine: m, Apps: apps, Allocation: al}
	if fc.DurationSeconds > 0 {
		s.Sim.Duration = des.Time(fc.DurationSeconds)
	}

	model, err := s.RunModel()
	if err != nil {
		fail(err)
	}
	fmt.Println("machine:", m)
	fmt.Println("allocation:", al)
	fmt.Println()
	fmt.Println(model.Summary(rapps))

	if *modelOnly {
		return
	}
	sim, err := s.RunSim()
	if err != nil {
		fail(err)
	}
	t := metrics.NewTable("model vs simulation", "app", "model GFLOPS", "simulated GFLOPS")
	for i, a := range apps {
		t.AddRow(a.Name, model.AppGFLOPS[i], sim.AppGFLOPS[i])
	}
	t.AddRow("TOTAL", model.TotalGFLOPS, sim.TotalGFLOPS)
	fmt.Println(t)
	fmt.Printf("simulated CPU utilization: %.1f%%, tasks executed: %d\n",
		sim.Utilization*100, sim.TasksExecuted)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "numasim:", err)
	os.Exit(1)
}

func buildMachine(fc fileConfig) (*machine.Machine, error) {
	mc := fc.Machine
	if mc.Preset != "" {
		return machine.Preset(mc.Preset)
	}
	if mc.Nodes <= 0 || mc.CoresPerNode <= 0 {
		return nil, fmt.Errorf("machine: need a preset or nodes/cores_per_node")
	}
	m := machine.Uniform("custom", mc.Nodes, mc.CoresPerNode, mc.GFLOPSPerCore, mc.NodeBandwidth, mc.LinkBandwidth)
	return m, m.Validate()
}

func buildAllocation(m *machine.Machine, rows [][]int, nApps int) (roofline.Allocation, error) {
	if len(rows) != nApps {
		return roofline.Allocation{}, fmt.Errorf("allocation has %d rows, %d apps configured", len(rows), nApps)
	}
	al := roofline.NewAllocation(nApps, m.NumNodes())
	for i, row := range rows {
		switch len(row) {
		case m.NumNodes():
			copy(al.Threads[i], row)
		case 1:
			for j := range al.Threads[i] {
				al.Threads[i][j] = row[0]
			}
		default:
			return roofline.Allocation{}, fmt.Errorf("allocation row %d has %d entries, want 1 or %d", i, len(row), m.NumNodes())
		}
	}
	return al, nil
}

func runOptimize(m *machine.Machine, apps []roofline.App) {
	counts, _, best, err := new(roofline.Search).BestPerNodeCountsFloorSpec(roofline.ObjTotalGFLOPS, nil, m, apps, 0)
	if err != nil {
		fail(err)
	}
	fmt.Println("machine:", m)
	fmt.Println("best uniform per-node counts:", counts)
	fmt.Println()
	fmt.Println(best.Summary(apps))

	al, res, err := roofline.Optimize(m, apps, nil, 0)
	if err != nil {
		fail(err)
	}
	if res.TotalGFLOPS > best.TotalGFLOPS+1e-9 {
		fmt.Println("hill-climbing found a better non-uniform allocation:")
		fmt.Println("allocation:", al)
		fmt.Println(res.Summary(apps))
	}
	aal, ares, err := roofline.Anneal(m, apps, nil, 1)
	if err != nil {
		fail(err)
	}
	if ares.TotalGFLOPS > res.TotalGFLOPS+1e-9 && ares.TotalGFLOPS > best.TotalGFLOPS+1e-9 {
		fmt.Println("simulated annealing found a better non-uniform allocation:")
		fmt.Println("allocation:", aal)
		fmt.Println(ares.Summary(apps))
	}
}

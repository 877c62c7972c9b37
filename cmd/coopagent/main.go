// Command coopagent demonstrates the paper's Fig. 1 architecture: two
// cooperating applications (a producer and a consumer built on the
// task runtime) executing on one simulated NUMA node set, coordinated
// by an agent that keeps the producer only a few iterations ahead.
//
//	coopagent                       # coordinated run with timeline
//	coopagent -no-agent             # uncoordinated baseline
//	coopagent -iterations 100       # longer run
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/agent"
	"repro/internal/des"
	"repro/internal/machine"
	"repro/internal/osched"
	"repro/internal/taskrt"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	iterations := flag.Int("iterations", 60, "pipeline iterations")
	noAgent := flag.Bool("no-agent", false, "disable the coordination agent")
	maxLead := flag.Int("max-lead", 4, "agent's target maximum producer lead")
	traceOut := flag.String("trace", "", "write a Chrome trace JSON of the run to this file")
	flag.Parse()

	m := machine.PaperModel()
	eng := des.NewEngine(1)
	o := osched.New(eng, osched.Config{Machine: m})
	o.Start()

	prod := taskrt.New(o, taskrt.Config{Name: "producer", BindMode: taskrt.BindNode})
	cons := taskrt.New(o, taskrt.Config{Name: "consumer", BindMode: taskrt.BindNode})

	var tr *trace.Trace
	if *traceOut != "" {
		tr = trace.New()
		prod.SetTracer(trace.RuntimeTracer{T: tr})
		cons.SetTracer(trace.RuntimeTracer{T: tr})
	}

	p := &workload.Pipeline{
		Producer: prod, Consumer: cons,
		TasksPerIter:      16,
		ProducerTaskGFlop: 0.02, // producer is lighter: it races ahead unmanaged
		ConsumerTaskGFlop: 0.08,
		Iterations:        *iterations,
		ItemSizeGB:        1,
	}

	var ag *agent.Agent
	if !*noAgent {
		pol := &agent.Align{Pipeline: p, ProducerClient: 0, ConsumerClient: 1, MinLead: 1, MaxLead: *maxLead}
		ag = agent.New(o, agent.Config{Period: 5 * des.Millisecond}, pol, prod, cons)
		ag.Start()
	}

	fmt.Printf("machine: %s\n", m)
	fmt.Printf("pipeline: %d iterations, 16 tasks/iter, producer 0.02 GFlop/task, consumer 0.08 GFlop/task\n", *iterations)
	fmt.Printf("agent: enabled=%v (period 5 ms, lead band [1,%d])\n\n", !*noAgent, *maxLead)
	fmt.Printf("%8s %10s %10s %7s %14s %16s\n", "time", "produced", "consumed", "lead", "producer thr", "intermediate GB")

	stop := eng.Ticker(100*des.Millisecond, func(now des.Time) {
		sp := prod.Stats()
		active := sp.Workers - sp.Suspended
		fmt.Printf("%7.1fs %10d %10d %7d %14d %16.1f\n",
			float64(now), p.ProducedIterations(), p.ConsumedIterations(),
			p.QueueDepth(), active, p.IntermediateGB())
	})

	var doneAt des.Time
	p.Start(func() {
		doneAt = eng.Now()
		stop()
		eng.Halt()
	})
	eng.RunUntil(600)

	fmt.Println()
	if doneAt == 0 {
		fmt.Println("pipeline did not finish within 600 simulated seconds")
		return
	}
	fmt.Printf("finished in %.2f simulated seconds\n", float64(doneAt))
	fmt.Printf("max intermediate items: %d (%.0f GB)\n", p.MaxQueueDepth(), float64(p.MaxQueueDepth())*p.ItemSizeGB)
	fmt.Printf("mean intermediate items: %.2f\n", p.MeanQueueDepth())
	if ag != nil {
		fmt.Printf("agent decisions: %d, commands applied: %d\n", ag.Decisions(), ag.Commands())
	}
	if tr != nil {
		spans := tr.Spans()
		data, err := trace.ChromeJSON(spans)
		if err != nil {
			fmt.Println("trace export failed:", err)
			return
		}
		if err := os.WriteFile(*traceOut, data, 0o644); err != nil {
			fmt.Println("trace write failed:", err)
			return
		}
		fmt.Printf("wrote %d trace events to %s (open in chrome://tracing)\n", len(spans), *traceOut)
		fmt.Println()
		fmt.Print(tr.Summary())
	}
}

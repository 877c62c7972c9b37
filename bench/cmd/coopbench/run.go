package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/bench/cal"
)

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string // where a traced run writes its spans; "" keeps them in memory only
	// toy selects the smoke-test sizes: tiny worlds, two epochs, no
	// minimum lap count. Not reachable from the command line.
	toy bool
}

// minLaps is the fewest timed laps a run's medians may rest on; the run
// keeps going past -seconds until it has them.
const minLaps = 30

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runInfo is printed on the line before the result: where and how the
// numbers were measured, and how many samples each rests on.
type runInfo struct {
	Workload   string         `json:"workload"`
	PrimaryOp  string         `json:"primary_op"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Trace      bool           `json:"trace"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NProc      int            `json:"nproc"`
	GoVersion  string         `json:"go_version"`
	CPU        string         `json:"cpu"`
	Epochs     int            `json:"epochs"`
	Laps       int            `json:"laps"`
	TracedLaps int            `json:"traced_laps"`
	OpsPerLap  int            `json:"ops_per_lap"`
	Ops        int            `json:"ops"`
	CalBlocks  int            `json:"cal_blocks"`
	WallS      float64        `json:"wall_s"`
	Samples    map[string]int `json:"samples"`
	Errors     []string       `json:"errors,omitempty"`
}

// lapSet is the timing of one kind of lap (untraced or traced).
type lapSet struct {
	opMeanCu   []float64 // per lap: (lap time / primary ops) / cu
	opCu       hist      // per op: latency / its lap's cu
	opUs       hist      // per op: latency in microseconds
	ops        int
	lapNs      int64
	allocBytes uint64
}

// kindSeries is one span kind's per-lap means over the traced laps.
type kindSeries struct {
	durCu      []float64 // mean span duration per call, in cu
	selfCu     []float64 // mean self time per call, in cu
	selfShare  []float64 // self time inside the timed region / lap time
	callsPerOp []float64 // calls inside the timed region / primary ops
}

type runner struct {
	wl *workload
	e  *env
	check
	rec lapRec

	epochs    int
	calBlocks int
	perStop   int // blocks per calibration stop: stopBlocks, 1 at toy size
	// blockNs holds the wall times of the calibration blocks around and
	// inside the current lap; pausedNs and pausedAlloc are what the lap's
	// pauses took out of its timed region.
	blockNs     []float64
	pausedNs    time.Duration
	pausedAlloc uint64
	sig         uint64 // the first lap's decision signature
	gflops      float64

	setupS, liveHeapMB, heapGrowthB []float64
	plain, traced                   lapSet
	cuUs                            []float64
	kinds                           [numSpanKinds]kindSeries

	// Exact per-lap counts; every lap of a run gives the same ones.
	requestsPerOp, scorerHits, scorerMisses []float64
	rounds, moves, deferred, callsPerRound  []float64
	// Summed member /metricsz solver counters over the epochs' laps
	// (traced runs only).
	solverHits, solverMisses uint64
	solverOps                int
}

func (r *runner) laps() int { return len(r.plain.opMeanCu) + len(r.traced.opMeanCu) }

// liveHeap is the heap still reachable after two forced collections
// (the second empties what the first moved to the pools' victim caches).
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

func scorerStats(ep epoch) (hits, misses uint64) {
	if w := ep.fleetWorld(); w != nil {
		return w.srv.Placer().Scorer.CacheStats()
	}
	return 0, 0
}

// solverStats sums the solver counters the live members report on
// /metricsz.
func (r *runner) solverStats(ep epoch) (hits, misses uint64) {
	for _, d := range ep.coopds() {
		m, err := d.cli.Metrics(ctx)
		if r.op(err, d.id+" metricsz") {
			hits += m.Solver.Hits
			misses += m.Solver.Misses
		}
	}
	return hits, misses
}

// Calibration blocks are timed right before a lap, right after it, and
// at every pause the workload takes between two ops inside it. The lap's
// cu is the median over all of them: about twenty 3 ms samples of the
// machine's speed spread through the lap, which follows a shared box's
// drift on the scale it happens (tens of milliseconds) and ignores a
// garbage collection or an interrupt that lands in a few of the blocks.
// stopBlocks is how many blocks run at each of those stops.
const stopBlocks = 3

// blocks runs n calibration blocks and notes each one's wall time.
func (r *runner) blocks(n int) {
	for i := 0; i < n; i++ {
		t0 := time.Now()
		sum := cal.Block()
		r.blockNs = append(r.blockNs, float64(time.Since(t0)))
		if sum != cal.Checksum {
			r.ok(false, "calibration kernel returned %#x, want %#x", sum, uint64(cal.Checksum))
		}
	}
}

// cu is the calibration unit of the blocks noted since the last reset:
// the median block's wall time per kernel iteration, in nanoseconds.
func (r *runner) cu() float64 { return median(r.blockNs) / cal.Iterations }

// pause stops the lap's clock, runs calibration blocks and starts the
// clock again. Workloads call it between two ops.
func (r *runner) pause() {
	var m0, m1 runtime.MemStats
	t0 := time.Now()
	runtime.ReadMemStats(&m0)
	r.blocks(r.perStop)
	runtime.ReadMemStats(&m1)
	r.pausedAlloc += m1.TotalAlloc - m0.TotalAlloc
	r.pausedNs += time.Since(t0)
}

// runLap times one lap and the calibration blocks next to it, then lets
// the epoch check and reset. Only ep.lap is inside the timed region.
func (r *runner) runLap(ep epoch, traced, last bool) {
	rec, tr := &r.rec, r.e.tr
	rec.begin()
	calls0 := r.e.net.memberCalls()
	hits0, misses0 := scorerStats(ep)
	r.blockNs, r.pausedNs, r.pausedAlloc = r.blockNs[:0], 0, 0
	r.blocks(r.perStop)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	tr.on = traced
	t0 := time.Now()
	ep.lap(rec)
	lapNs := time.Since(t0) - r.pausedNs
	tr.on = false
	runtime.ReadMemStats(&m1)
	calls := r.e.net.memberCalls() - calls0
	hits1, misses1 := scorerStats(ep)
	inLap := tr.takeLap()

	r.blocks(r.perStop)
	cuNs := r.cu()
	r.calBlocks += len(r.blockNs)
	r.ok(len(r.blockNs) >= 2*r.perStop, "lap has %d calibration blocks next to it", len(r.blockNs))

	tr.on = traced
	ep.reset(rec, last)
	tr.on = false
	inReset := tr.takeLap()

	ops := len(rec.opNs)
	if !r.ok(ops > 0, "lap ran no primary op") {
		return
	}
	if r.laps() == 0 {
		r.sig = rec.sig
	}
	r.ok(rec.sig == r.sig, "lap %d took other decisions than the first lap (%#x, want %#x)", r.laps(), rec.sig, r.sig)

	set := &r.plain
	if traced {
		set = &r.traced
	}
	set.opMeanCu = append(set.opMeanCu, float64(lapNs)/float64(ops)/cuNs)
	for _, ns := range rec.opNs {
		set.opCu.add(float64(ns) / cuNs)
		set.opUs.add(float64(ns) / 1e3)
	}
	set.ops += ops
	set.lapNs += int64(lapNs)
	set.allocBytes += m1.TotalAlloc - m0.TotalAlloc - r.pausedAlloc
	r.cuUs = append(r.cuUs, cuNs/1e3)

	r.requestsPerOp = append(r.requestsPerOp, float64(calls)/float64(ops))
	r.scorerHits = append(r.scorerHits, float64(hits1-hits0))
	r.scorerMisses = append(r.scorerMisses, float64(misses1-misses0))
	if rec.rounds > 0 {
		r.rounds = append(r.rounds, float64(rec.rounds-2))
		r.moves = append(r.moves, float64(rec.moves)/float64(rec.rounds))
		r.deferred = append(r.deferred, float64(rec.deferred))
		r.callsPerRound = append(r.callsPerRound, float64(calls)/float64(rec.rounds))
	}
	if !traced {
		return
	}
	for k := range r.kinds {
		ks := &r.kinds[k]
		if n := inLap[k].calls + inReset[k].calls; n > 0 {
			ks.durCu = append(ks.durCu, float64(inLap[k].durNs+inReset[k].durNs)/float64(n)/cuNs)
			ks.selfCu = append(ks.selfCu, float64(inLap[k].selfNs+inReset[k].selfNs)/float64(n)/cuNs)
		}
		ks.selfShare = append(ks.selfShare, float64(inLap[k].selfNs)/float64(lapNs))
		ks.callsPerOp = append(ks.callsPerOp, float64(inLap[k].calls)/float64(ops))
	}
}

// runEpoch builds a fresh world (timed as set-up), replays the
// workload's laps on it and checks the final state.
func (r *runner) runEpoch(traced bool) error {
	runtime.GC() // the previous world is garbage; do not collect it inside the timing
	t0 := time.Now()
	ep, err := r.wl.setup(r.e, &r.check)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	r.setupS = append(r.setupS, time.Since(t0).Seconds())
	heap0 := liveHeap()
	var hits0, misses0 uint64
	if traced {
		hits0, misses0 = r.solverStats(ep)
	}
	ops0 := r.plain.ops + r.traced.ops
	for lap := 0; lap < r.wl.lapsPerEpoch; lap++ {
		r.runLap(ep, traced, lap == r.wl.lapsPerEpoch-1)
	}
	heap1 := liveHeap()
	ops := r.plain.ops + r.traced.ops - ops0
	r.liveHeapMB = append(r.liveHeapMB, heap1/1e6)
	if ops > 0 {
		r.heapGrowthB = append(r.heapGrowthB, (heap1-heap0)/float64(ops))
	}
	if traced {
		hits1, misses1 := r.solverStats(ep)
		r.solverHits += hits1 - hits0
		r.solverMisses += misses1 - misses0
		r.solverOps += ops
	}
	g := ep.finish(&r.check)
	if r.epochs == 0 {
		r.gflops = g
	}
	r.ok(g == r.gflops && g > 0, "epoch %d ends at %.6f GFLOPS, the first at %.6f", r.epochs, g, r.gflops)
	r.epochs++
	return nil
}

// run measures one workload and returns what to print.
func run(cfg config, log io.Writer) (*runInfo, *result, error) {
	// One P: the load generator, the servers and the calibration kernel
	// share one OS thread, so the numbers measure the program and not
	// the scheduler of a 2-core box.
	runtime.GOMAXPROCS(1)
	wl, err := newWorkload(cfg.workload, cfg.seed, cfg.toy)
	if err != nil {
		return nil, nil, err
	}
	r := &runner{wl: wl, e: newEnv(), perStop: stopBlocks}
	if cfg.toy {
		r.perStop = 1
	}
	r.rec.check = &r.check
	r.rec.pause = r.pause
	if cfg.trace {
		r.e.tr.retain()
	}
	paperCheck(r.e, &r.check)
	r.blocks(r.perStop) // page the kernel in before it is first timed

	start := time.Now()
	budget := cfg.seconds
	if cfg.trace {
		budget *= 0.8 // the probes run after the laps, inside -seconds
	}
	for {
		if err := r.runEpoch(cfg.trace && r.epochs%2 == 1); err != nil {
			return nil, nil, err
		}
		if r.epochs < 2 {
			continue
		}
		if cfg.toy {
			break
		}
		// Stop when the next epoch would end past the budget.
		elapsed := time.Since(start).Seconds()
		if r.laps() >= minLaps && elapsed*(1+1/float64(r.epochs)) > budget {
			break
		}
	}

	res := &result{Metrics: map[string]metric{}}
	samples := map[string]int{
		"setup_s": len(r.setupS), "live_heap_mb": len(r.liveHeapMB),
		"op_mean_cu": len(r.plain.opMeanCu), "op_p50_cu": int(r.plain.opCu.n),
		"alloc_kb_per_op": r.plain.ops, "fleet_gflops": r.epochs,
	}
	if cfg.trace {
		if err := r.perLayer(res.Metrics, log); err != nil {
			return nil, nil, err
		}
		if cfg.traceOut != "" {
			if err := r.e.tr.writeSpans(cfg.traceOut); err != nil {
				return nil, nil, fmt.Errorf("writing spans: %w", err)
			}
		}
	} else {
		r.endToEnd(res.Metrics)
	}
	res.Correct = r.failed == 0
	res.Attempted, res.Failed = r.attempted, r.failed
	info := &runInfo{
		Workload: wl.name, PrimaryOp: wl.primary, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), GoVersion: runtime.Version(), CPU: cpuModel(),
		Epochs: r.epochs, Laps: r.laps(), TracedLaps: len(r.traced.opMeanCu),
		OpsPerLap: (r.plain.ops + r.traced.ops) / max(r.laps(), 1), Ops: r.plain.ops + r.traced.ops,
		CalBlocks: r.calBlocks, WallS: time.Since(start).Seconds(), Samples: samples, Errors: r.errs,
	}
	return info, res, nil
}

// endToEnd fills in the metrics a user of the system would see. They
// come from untraced laps only.
func (r *runner) endToEnd(m map[string]metric) {
	p := &r.plain
	m["setup_s"] = metric{median(r.setupS), "s"}
	m["op_mean_cu"] = metric{median(p.opMeanCu), "cu/op"}
	m["op_p50_cu"] = metric{p.opCu.quantile(0.5), "cu"}
	m["alloc_kb_per_op"] = metric{float64(p.allocBytes) / float64(max(p.ops, 1)) / 1e3, "kB/op"}
	m["live_heap_mb"] = metric{median(r.liveHeapMB), "MB"}
	m["fleet_gflops"] = metric{r.gflops, "GFLOPS"}
	m["ok_frac"] = metric{1 - float64(r.failed)/float64(max(r.attempted, 1)), "ratio"}
}

// cpuModel reads the processor's name, best effort.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

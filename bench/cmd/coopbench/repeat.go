package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchmarkSpec is the part of BENCHMARK.json the repeat mode and the
// smoke test read.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) computes them (exclusive method).
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// repeatRuns runs the workload n times in fresh processes, seeds
// cfg.seed .. cfg.seed+n-1, and prints each end-to-end metric's median,
// quartiles and spread. The exit code is 1 when a run fails or a
// metric's interquartile spread exceeds its BENCHMARK.json bound.
func repeatRuns(cfg config, n int) int {
	spec, err := readBenchmarkSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "coopbench: -repeat reads the bounds from BENCHMARK.json in the working directory:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "coopbench:", err)
		return 2
	}
	if n < 2 {
		fmt.Fprintln(os.Stderr, "coopbench: -repeat needs at least 2 runs")
		return 2
	}
	values := map[string][]float64{}
	for i := 0; i < n; i++ {
		seed := cfg.seed + int64(i)
		cmd := exec.Command(self,
			"--workload", cfg.workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", "0")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "coopbench: run %d (seed %d): %v\n", i, seed, err)
			return 1
		}
		var last []byte
		for sc := bufio.NewScanner(bytes.NewReader(out)); sc.Scan(); {
			last = append(last[:0], sc.Bytes()...)
		}
		var res result
		if err := json.Unmarshal(last, &res); err != nil || !res.Correct {
			fmt.Fprintf(os.Stderr, "coopbench: run %d (seed %d) printed no correct result: %s\n", i, seed, last)
			return 1
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
		}
		fmt.Fprintf(os.Stderr, "run %d/%d (seed %d) done\n", i+1, n, seed)
	}

	code := 0
	fmt.Printf("### %s — %d runs, seeds %d..%d, %g s each\n\n", cfg.workload, n, cfg.seed, cfg.seed+int64(n)-1, cfg.seconds)
	fmt.Println("| metric | unit | median | q1 | q3 | IQR/median | (max-min)/median | bound | |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	for _, ms := range spec.EndToEnd {
		v := values[ms.Name]
		if len(v) != n {
			fmt.Printf("| %s | %s | missing from %d runs | | | | | %g | FAIL |\n", ms.Name, ms.Unit, n-len(v), ms.Bound)
			code = 1
			continue
		}
		med := median(v)
		q1, q3 := quartiles(v)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range v {
			lo, hi = min(lo, x), max(hi, x)
		}
		iqr, rng := (q3-q1)/med, (hi-lo)/med
		verdict := "ok"
		switch {
		case ms.Name == "setup_s":
			verdict = "not gated"
		case iqr > ms.Bound:
			verdict = "FAIL"
			code = 1
		case iqr > ms.Bound/3:
			verdict = "above bound/3"
		}
		fmt.Printf("| %s | %s | %.6g | %.6g | %.6g | %.4f | %.4f | %g | %s |\n",
			ms.Name, ms.Unit, med, q1, q3, iqr, rng, ms.Bound, verdict)
	}
	fmt.Println()
	return code
}

// Package cal is coopbench's frozen calibration kernel: a fixed amount
// of standard-library work (fmt.Sprintf plus an encoding/json round
// trip of a small struct holding a map and two slices) whose wall time
// is measured next to every benchmark lap. One calibration unit (cu) is
// the wall time of one iteration in the blocks adjacent to a lap; every
// `_cu` metric is a time divided by it, so slow minutes of a shared
// machine cancel out of the ratio.
//
// The kernel imports nothing from this repository, so no change to the
// program can move it. Editing anything in this file re-baselines every
// `_cu` metric; cal_test.go pins the iteration count and the checksum
// to make such an edit loud.
package cal

import (
	"encoding/json"
	"fmt"
)

// Iterations is the fixed number of kernel iterations in one Block.
const Iterations = 500

// Checksum is what Block returns. The benchmark checks it after every
// block, so a kernel that did other work than the pinned one fails the
// run instead of quietly rescaling it.
const Checksum = 0x7243c65f1ae5f9bd

// record is the value each iteration formats, encodes and decodes. Its
// shape mirrors the wire types of the program (short strings, a small
// map, per-node integer and float slices).
type record struct {
	ID      string         `json:"id"`
	Seq     int            `json:"seq"`
	Rate    float64        `json:"rate"`
	Tags    map[string]int `json:"tags"`
	PerNode []int          `json:"per_node"`
	Weights []float64      `json:"weights"`
}

// Block runs Iterations iterations of the kernel and returns an FNV-1a
// checksum over everything it encoded and decoded.
func Block() uint64 {
	const (
		offset64 = 0xcbf29ce484222325
		prime64  = 0x100000001b3
	)
	sum := uint64(offset64)
	for i := 0; i < Iterations; i++ {
		in := record{
			ID:      fmt.Sprintf("app-%d-%04x", i, (i*2654435761)&0xffff),
			Seq:     i,
			Rate:    float64(i)*0.25 + 0.125,
			Tags:    map[string]int{"node": i & 3, "class": i % 5, "gen": i},
			PerNode: []int{i & 7, (i >> 3) & 7, (i >> 6) & 7, 1},
			Weights: []float64{0.5, float64(i%32) / 32},
		}
		data, err := json.Marshal(&in)
		if err != nil {
			panic(err) // fixed input: only a bug can fail here
		}
		var out record
		if err := json.Unmarshal(data, &out); err != nil {
			panic(err)
		}
		for _, b := range data {
			sum = (sum ^ uint64(b)) * prime64
		}
		sum = (sum ^ uint64(out.Seq+len(out.Tags)+out.PerNode[3])) * prime64
	}
	return sum
}

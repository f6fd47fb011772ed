package main

import (
	"encoding/json"
	"sort"
	"time"
)

// calibNominalMs is what one calibrator pass typically takes on the
// reference 2-vCPU box (10 ms when its host is quiet, 14 ms at its
// busiest), so that reported and measured timings there are close.
const calibNominalMs = 12.0

// hostSpeed measures how fast the host runs memory-bound code during a
// run, with a fixed kernel that uses nothing from the repository: it
// allocates 32k small objects, links them in shuffled order, walks the
// list four times, sorts 32k floats and round-trips a 40 kB JSON
// document — the mix of pointer chasing, allocation and encoding the
// code under test is made of. The kernel runs between the groups in
// every round, so it sees the same phases of the host as they do.
//
// On the shared host this benchmark was built on, runs of identical
// code differ by 10-30 % from one minute to the next while a pure ALU
// loop holds 2 %: neighbours on the host's memory system. Over 32 runs
// the calibrator's median tracked the run's timings with a correlation
// of 0.75-0.97, and dividing by it cut the spread of ten runs by a
// third (README.md has the numbers). Timings are therefore reported at
// reference speed: measured x calibNominalMs / the run's median pass.
type hostSpeed struct {
	passMs []float64
}

type calNode struct {
	next *calNode
	pad  [6]uint64
}

type calDoc struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
	Tags   []string  `json:"tags"`
}

// sample runs the kernel once and records how long it took.
func (h *hostSpeed) sample() {
	t0 := time.Now()
	const n = 1 << 15
	nodes := make([]*calNode, n)
	for i := range nodes {
		nodes[i] = &calNode{}
	}
	x := uint64(12345)
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x
	}
	for i := n - 1; i > 0; i-- {
		j := int(next()>>33) % (i + 1)
		nodes[i], nodes[j] = nodes[j], nodes[i]
	}
	for i := 0; i < n-1; i++ {
		nodes[i].next = nodes[i+1]
	}
	var sum uint64
	for r := 0; r < 4; r++ {
		for p := nodes[0]; p != nil; p = p.next {
			sum += p.pad[0]
			p.pad[0]++
		}
	}
	fs := make([]float64, n)
	for i := range fs {
		fs[i] = float64(next() >> 11)
	}
	sort.Float64s(fs)
	doc := calDoc{Name: "calibrator", Values: fs[:2000]}
	for i := 0; i < 200; i++ {
		doc.Tags = append(doc.Tags, "tag-value-number")
	}
	// Marshal of floats and strings cannot fail; the round trip is
	// checked by the length below.
	buf, _ := json.Marshal(doc)
	var back calDoc
	_ = json.Unmarshal(buf, &back)
	if sum != 6*(n) || len(back.Values) != len(doc.Values) {
		panic("bench: calibrator kernel computed the wrong result")
	}
	h.passMs = append(h.passMs, msSince(t0))
}

// factor is what a measured duration is multiplied by to express it at
// reference speed; a rate is divided by it. 1 before any sample.
func (h *hostSpeed) factor() float64 {
	if len(h.passMs) == 0 {
		return 1
	}
	return calibNominalMs / median(h.passMs)
}

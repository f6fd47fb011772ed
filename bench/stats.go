package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs; 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// blockMedian is the benchmark's latency statistic: the median over
// blocks of each block's median. Every block replays the same op cycle,
// so block medians sample one population; taking their median discards
// whole blocks that ran during a machine hiccup instead of letting them
// shift the figure.
func blockMedian(blocks [][]float64) float64 {
	meds := make([]float64, 0, len(blocks))
	for _, b := range blocks {
		if len(b) > 0 {
			meds = append(meds, median(b))
		}
	}
	return median(meds)
}

// geomean returns the geometric mean of xs, so that a shape ten times
// slower than the others does not own the figure. Non-positive values
// make the result 0.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// tailPercentiles are the tails a diagnostic may report, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90}

// tail returns the highest percentile of xs that still has at least
// ten samples beyond it (nearest-rank), with its value; ok is false
// when even the p90 has fewer than ten, i.e. below 100 samples.
func tail(xs []float64) (pct, value float64, ok bool) {
	n := len(xs)
	for _, p := range tailPercentiles {
		// 1-based nearest rank; the epsilon keeps 99.9 % of 10,000 at
		// 9,990 although the product is not exact in binary.
		rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
		if n-rank >= 10 {
			s := append([]float64(nil), xs...)
			sort.Float64s(s)
			return p, s[rank-1], true
		}
	}
	return 0, 0, false
}

// flatten concatenates blocks.
func flatten(blocks [][]float64) []float64 {
	var out []float64
	for _, b := range blocks {
		out = append(out, b...)
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover. Children may overlap each
// other and may stick out of the parent (a poller's request that was
// parked before the tick began): coverage is the length of the union
// of the children's intervals clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	index := make(map[int]int, len(spans))
	for i, s := range spans {
		index[s.ID] = i
	}
	for i, s := range spans {
		if s.Parent != 0 {
			if p, ok := index[s.Parent]; ok {
				children[p] = append(children[p], i)
			}
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.EndNs - s.StartNs - covered(s, spans, children[i])
	}
	return out
}

// covered is the length of the union of the kids' intervals inside p.
func covered(p span, spans []span, kids []int) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].StartNs, p.StartNs), min(spans[k].EndNs, p.EndNs)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = math.MinInt64
	for _, v := range ivs {
		if v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// layerSelf sums self time by layer and returns the share of the root
// spans' total duration that layers other than the harness account for.
func layerSelf(spans []span) (byLayer map[string]int64, coverage float64) {
	self := selfTimes(spans)
	byLayer = map[string]int64{}
	var roots, layers int64
	for i, s := range spans {
		byLayer[s.Layer] += self[i]
		if s.Parent == 0 {
			roots += s.EndNs - s.StartNs
		}
		if s.Layer != layerHarness {
			layers += self[i]
		}
	}
	if roots > 0 {
		coverage = float64(layers) / float64(roots)
	}
	return byLayer, coverage
}

package maxflow

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// fullScan is the Solver that runs fullScanEdmondsKarp.
var fullScan = Solver(len(maxFlows))

func init() { maxFlows = append(maxFlows, fullScanEdmondsKarp) }

// fullScanEdmondsKarp is Edmonds-Karp with every search reading all of a
// node's arcs, whatever g.stop says, and clearing prev over every node
// first: the reference the trimmed searches are held to.
func fullScanEdmondsKarp(g *graph, s, t int) float64 {
	g.build()
	var total float64
	prev := g.prev
	for {
		g.searches++
		for i := range prev {
			prev[i] = -1
		}
		prev[s] = -2
		queue := append(g.queue[:0], int32(s))
		found := false
	bfs:
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, id := range g.arcs(u) {
				v := g.to[id]
				if prev[v] == -1 && g.residual(id) > eps {
					prev[v] = id
					if int(v) == t {
						found = true
						break bfs
					}
					queue = append(queue, v)
				}
			}
		}
		if !found {
			g.queue = queue
			return total
		}
		// Find the bottleneck along the path.
		bottleneck := math.Inf(1)
		for v := int32(t); v != int32(s); {
			id := prev[v]
			if r := g.residual(id); r < bottleneck {
				bottleneck = r
			}
			v = g.to[id^1]
		}
		for v := int32(t); v != int32(s); {
			id := prev[v]
			g.flow[id] += bottleneck
			g.flow[id^1] -= bottleneck
			v = g.to[id^1]
		}
		total += bottleneck
		g.paths++
	}
}

// TestEdmondsKarpMatchesFullScan runs Edmonds-Karp and the full-scan
// reference on the same random graphs, some solved twice with another
// source and sink in between, and requires the same flow on every arc bit
// for bit, the same paths and searches, and the same reached set.
func TestEdmondsKarpMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(12)
		g1, g2 := &graph{n: n}, &graph{n: n}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v && rng.Float64() < 0.3 {
					c := float64(rng.Intn(40)) / 4
					g1.addEdge(u, v, c)
					g2.addEdge(u, v, c)
				}
			}
		}
		for round := 0; round < 3; round++ {
			s, t2 := rng.Intn(n), rng.Intn(n)
			if s == t2 {
				continue
			}
			f1 := g1.edmondsKarp(s, t2)
			f2 := fullScanEdmondsKarp(g2, s, t2)
			if math.Float64bits(f1) != math.Float64bits(f2) || g1.paths != g2.paths || g1.searches != g2.searches {
				t.Fatalf("trial %d round %d: flow %v in %d paths, %d searches; full scan %v in %d, %d",
					trial, round, f1, g1.paths, g1.searches, f2, g2.paths, g2.searches)
			}
			if !slices.Equal(g1.flow, g2.flow) || !slices.Equal(g1.queue, g2.queue) {
				t.Fatalf("trial %d round %d: arc flows or reached set differ from the full scan", trial, round)
			}
		}
	}
}

package grid

import "perseus/internal/frontier"

// GreedyDecisions exposes greedyDecisions to the package's external
// tests, which replay controller episodes through internal/forecast.
func GreedyDecisions(s *Solver, lt *frontier.LookupTable, sig *Signal, opts Options, p *Plan) (string, error) {
	return greedyDecisions(s, lt, sig, opts, p)
}

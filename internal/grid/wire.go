package grid

import (
	"encoding/json"
	"fmt"
)

// DecodePlan parses the JSON encoding of a Plan: encoding/json's
// decode, then a check that the runs are well formed (positive counts,
// slices only in a run of one, no point below Idle, no negative slice),
// so a malformed body fails here rather than when its runs are
// expanded. The returned Plan shares no memory with b.
func DecodePlan(b []byte) (Plan, error) {
	var p Plan
	if err := json.Unmarshal(b, &p); err != nil {
		return p, err
	}
	for i, r := range p.Runs {
		if r.Count < 1 || r.Point < Idle || (len(r.Slices) > 0 && r.Count != 1) {
			return p, fmt.Errorf("grid: plan run %d is malformed: %+v", i, r)
		}
		for _, sl := range r.Slices {
			if sl.Point < 0 || sl.Seconds < 0 {
				return p, fmt.Errorf("grid: plan run %d has a malformed slice: %+v", i, sl)
			}
		}
	}
	return p, nil
}

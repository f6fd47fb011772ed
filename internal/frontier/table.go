package frontier

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"perseus/internal/gpu"
)

// LookupTable is the serializable form of a characterized frontier: the
// energy-schedule cache the Perseus server keeps per job, "saved in a
// lookup table indexed by T'" (paper §3.2). Unlike Frontier it carries
// fully materialized frequency plans and no profile state, so it can be
// persisted across server restarts and served without recomputation.
type LookupTable struct {
	// Unit is the optimizer's τ in seconds.
	Unit float64 `json:"unit_s"`

	// TminUnits and TStarUnits bound the frontier in τ units.
	TminUnits  int64 `json:"tmin_units"`
	TStarUnits int64 `json:"tstar_units"`

	// Points are the cached energy schedules by increasing time.
	Points []TablePoint `json:"points"`
}

// TablePoint is one cached energy schedule.
type TablePoint struct {
	// TimeUnits is the planned iteration time in τ units.
	TimeUnits int64 `json:"time_units"`

	// Energy is the discrete adjusted computation energy in joules.
	Energy float64 `json:"energy_j"`

	// Freqs is the realized per-computation frequency plan (MHz),
	// indexed by schedule op id; 0 marks constant-time operations.
	Freqs []gpu.Frequency `json:"freqs_mhz"`
}

// Time returns the planned iteration time in seconds under the table's τ.
func (lt *LookupTable) time(units int64) float64 { return float64(units) * lt.Unit }

// Table materializes the frontier into a serializable lookup table. It
// walks the points in the order the optimizer found them, from T* down,
// keeping one duration and one frequency vector and re-realizing only the
// computations each step moved; every point's plan is a slice of one array.
// Memory is points × computations; for very fine frontiers consider
// sampling with stride before persisting.
func (f *Frontier) Table() *LookupTable {
	lt := &LookupTable{
		Unit:       f.Unit,
		TminUnits:  f.tminUnits,
		TStarUnits: f.tstarUnits,
		Points:     make([]TablePoint, len(f.points)),
	}
	last := len(f.points) - 1
	n := f.nReal
	freqs := make([]gpu.Frequency, len(f.points)*n)
	durs := f.points[last].Durations()
	cur := f.points[last].Plan()
	for k := last; k >= 0; k-- {
		pt := f.points[k]
		for _, d := range f.deltas[pt.index] {
			durs[d.comp] += int64(d.delta)
			chosen, _ := realize(&f.info[d.comp], durs[d.comp], f.Unit)
			cur[d.comp] = chosen.Freq
		}
		plan := freqs[k*n : (k+1)*n : (k+1)*n]
		copy(plan, cur)
		lt.Points[k] = TablePoint{TimeUnits: pt.TimeUnits, Energy: pt.Energy, Freqs: plan}
	}
	return lt
}

// Lookup returns the energy schedule for an anticipated straggler
// iteration time tPrime, with the same T_opt = min(T*, T') semantics as
// Frontier.Lookup (paper Eq. 2). The lookup is a binary search:
// "instantaneous" per paper §6.5. An empty table (never produced by
// Table or LoadTable, but possible for hand-built values) returns the
// zero TablePoint.
func (lt *LookupTable) Lookup(tPrime float64) TablePoint {
	if len(lt.Points) == 0 {
		return TablePoint{}
	}
	return lt.Points[lt.LookupIndex(tPrime)]
}

// PointTime returns the planned iteration time of point i in seconds.
func (lt *LookupTable) PointTime(i int) float64 { return lt.time(lt.Points[i].TimeUnits) }

// AvgPower returns the average power draw of point i in watts: the
// point's adjusted computation energy divided by its planned iteration
// time. Along the table, time strictly rises while energy falls, so
// average power strictly decreases from the Tmin point to the T* point —
// this is the knob a fleet-level allocator trades across jobs to meet a
// datacenter power envelope.
func (lt *LookupTable) AvgPower(i int) float64 {
	pt := lt.Points[i]
	return pt.Energy / lt.time(pt.TimeUnits)
}

// FirstUnderPower returns the index of the fastest point whose average
// power is at most maxW, or -1 when even the T* point draws more.
// Average power strictly decreases along the table, so this is the
// operating floor a per-interval facility cap imposes on a job.
func (lt *LookupTable) FirstUnderPower(maxW float64) int {
	n := len(lt.Points)
	i := sort.Search(n, func(i int) bool { return lt.AvgPower(i) <= maxW })
	if i == n {
		return -1
	}
	return i
}

// LookupIndex returns the index of the point Lookup(tPrime) would
// return, for callers that track operating points by position.
func (lt *LookupTable) LookupIndex(tPrime float64) int {
	if len(lt.Points) == 0 {
		return -1
	}
	tstar := lt.time(lt.TStarUnits)
	topt := math.Min(tPrime, tstar)
	units := int64(math.Floor(topt/lt.Unit + 1e-9))
	if units <= lt.Points[0].TimeUnits {
		return 0
	}
	return sort.Search(len(lt.Points), func(i int) bool {
		return lt.Points[i].TimeUnits > units
	}) - 1
}

// Tmin returns the fastest cached iteration time in seconds.
func (lt *LookupTable) Tmin() float64 { return lt.time(lt.TminUnits) }

// TStar returns the minimum-energy iteration time in seconds.
func (lt *LookupTable) TStar() float64 { return lt.time(lt.TStarUnits) }

// Save writes the table as JSON.
func (lt *LookupTable) Save(w io.Writer) error {
	return json.NewEncoder(w).Encode(lt)
}

// LoadTable reads and validates a table written by Save.
func LoadTable(r io.Reader) (*LookupTable, error) {
	var lt LookupTable
	if err := json.NewDecoder(r).Decode(&lt); err != nil {
		return nil, fmt.Errorf("frontier: decoding lookup table: %w", err)
	}
	if lt.Unit <= 0 {
		return nil, fmt.Errorf("frontier: lookup table has non-positive unit %v", lt.Unit)
	}
	if len(lt.Points) == 0 {
		return nil, fmt.Errorf("frontier: lookup table has no points")
	}
	nComps := len(lt.Points[0].Freqs)
	for i, pt := range lt.Points {
		if i > 0 && pt.TimeUnits <= lt.Points[i-1].TimeUnits {
			return nil, fmt.Errorf("frontier: lookup table times not increasing at point %d", i)
		}
		if len(pt.Freqs) != nComps {
			return nil, fmt.Errorf("frontier: point %d has %d frequencies, want %d", i, len(pt.Freqs), nComps)
		}
	}
	if lt.Points[0].TimeUnits != lt.TminUnits || lt.Points[len(lt.Points)-1].TimeUnits != lt.TStarUnits {
		return nil, fmt.Errorf("frontier: lookup table endpoints do not match Tmin/T*")
	}
	return &lt, nil
}

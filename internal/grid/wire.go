package grid

import (
	"bytes"
	"encoding/json"
	"strconv"
	"unicode/utf8"

	"perseus/internal/plan"
)

// DecodePlan parses the JSON encoding of a Plan. For every input it
// accepts, rejects and returns exactly what json.Unmarshal(b, &p) into
// a zero Plan does; the returned Plan shares no memory with b, so the
// caller may reuse the buffer.
//
// A 288-interval plan is ~3,500 numbers behind ~3,000 keys, and
// reflection spends most of a decode matching those keys and growing
// slices. The body encoding/json emits for a Plan has one fixed shape —
// compact, fields in declaration order, "slices" omitted when empty —
// so the decoder below reads that shape in one pass with the keys as
// literals, and the first byte that departs from it (an unknown,
// reordered, duplicate or case-variant key, whitespace, a string
// escape, null, a number strconv rejects) abandons the pass and
// decodes b again through encoding/json. A field added to Plan,
// IntervalPlan or Slice therefore costs speed, never correctness, until
// it is added here; TestDecodePlanCoversEveryField fails until it is.
func DecodePlan(b []byte) (Plan, error) {
	if p, ok := decodePlanFast(b); ok {
		return p, nil
	}
	var p Plan
	err := json.Unmarshal(b, &p)
	return p, err
}

var (
	intervalOpen = []byte(`{"index":`)
	sliceOpen    = []byte(`{"point":`)
)

// decodePlanFast is the one-pass decoder; ok is false when b is not the
// canonical encoding (p is then meaningless).
func decodePlanFast(b []byte) (p Plan, ok bool) {
	d := wireDecoder{b: b}
	d.lit(`{"objective":`)
	p.Objective = Objective(d.str())
	d.lit(`,"target_iterations":`)
	p.Target = d.float()
	d.lit(`,"deadline_s":`)
	p.DeadlineS = d.float()
	d.lit(`,"feasible":`)
	p.Feasible = d.bool()
	d.lit(`,"iterations":`)
	p.Iterations = d.float()
	d.account(&p.Account)
	d.lit(`,"finish_s":`)
	p.FinishS = d.float()
	d.lit(`,"price":`)
	p.Price = d.float()
	d.lit(`,"intervals":[`)
	if d.has(`]`) {
		p.Intervals = []IntervalPlan{}
	} else {
		// Counting the opening keys sizes both slices exactly for a
		// canonical body; for any other the counts are only a hint.
		p.Intervals = make([]IntervalPlan, 0, bytes.Count(b, intervalOpen))
		d.slices = make([]Slice, 0, bytes.Count(b, sliceOpen))
		for more := !d.bad; more; more = !d.bad && d.has(`,`) {
			p.Intervals = append(p.Intervals, IntervalPlan{})
			d.interval(&p.Intervals[len(p.Intervals)-1])
		}
		d.lit(`]`)
	}
	d.lit(`}`)
	for d.i < len(b) && b[d.i] == '\n' { // json.Encoder ends a value with one
		d.i++
	}
	return p, !d.bad && d.i == len(b)
}

// wireDecoder is a cursor over a canonical Plan body. The first
// mismatch sets bad and every later call is a no-op, so callers check
// once at the end.
type wireDecoder struct {
	b   []byte
	i   int
	bad bool

	// slices backs every IntervalPlan.Slices of the plan: one allocation
	// instead of one per busy interval.
	slices []Slice
}

// has consumes s if the input continues with it.
func (d *wireDecoder) has(s string) bool {
	if d.bad || len(d.b)-d.i < len(s) || string(d.b[d.i:d.i+len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}

// lit consumes s, which must come next.
func (d *wireDecoder) lit(s string) {
	if !d.has(s) {
		d.bad = true
	}
}

func (d *wireDecoder) account(a *plan.Account) {
	d.lit(`,"energy_j":`)
	a.EnergyJ = d.float()
	d.lit(`,"carbon_g":`)
	a.CarbonG = d.float()
	d.lit(`,"cost_usd":`)
	a.CostUSD = d.float()
}

func (d *wireDecoder) interval(iv *IntervalPlan) {
	d.lit(`{"index":`)
	iv.Index = d.int()
	d.lit(`,"start_s":`)
	iv.StartS = d.float()
	d.lit(`,"end_s":`)
	iv.EndS = d.float()
	d.lit(`,"carbon_g_per_kwh":`)
	iv.CarbonGPerKWh = d.float()
	d.lit(`,"price_usd_per_kwh":`)
	iv.PriceUSDPerKWh = d.float()
	if d.has(`,"slices":[`) {
		// omitempty never emits an empty array, so one is not canonical.
		start := len(d.slices)
		for more := true; more; more = !d.bad && d.has(`,`) {
			var s Slice
			d.lit(`{"point":`)
			s.Point = d.int()
			d.lit(`,"seconds":`)
			s.Seconds = d.float()
			d.lit(`}`)
			d.slices = append(d.slices, s)
		}
		d.lit(`]`)
		// Capped, so appending to one interval's slices cannot write
		// into the next interval's.
		iv.Slices = d.slices[start:len(d.slices):len(d.slices)]
	}
	d.lit(`,"idle_s":`)
	iv.IdleS = d.float()
	d.lit(`,"iterations":`)
	iv.Iterations = d.float()
	d.account(&iv.Account)
	d.lit(`}`)
}

// str consumes a string of plain ASCII. Escapes, control bytes and
// anything encoding/json would have to validate as UTF-8 are left to it.
func (d *wireDecoder) str() string {
	d.lit(`"`)
	start := d.i
	for d.i < len(d.b) && d.b[d.i] != '"' {
		if c := d.b[d.i]; c < ' ' || c == '\\' || c >= utf8.RuneSelf {
			d.bad = true
			return ""
		}
		d.i++
	}
	s := d.b[start:d.i]
	d.lit(`"`)
	return string(s)
}

func (d *wireDecoder) bool() bool {
	if d.has(`true`) {
		return true
	}
	d.lit(`false`)
	return false
}

// number consumes one number literal of the JSON grammar — the only
// spellings encoding/json's scanner lets through to strconv — and
// reports whether it is written as an integer.
func (d *wireDecoder) number() (tok []byte, integer bool) {
	if d.bad {
		return nil, false
	}
	b, i := d.b, d.i
	digits := func() bool {
		j := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	ok := true
	if i < len(b) && b[i] == '0' {
		i++ // a leading zero stands alone
	} else {
		ok = digits()
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		i++
		integer = false
		ok = ok && digits()
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		integer = false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		ok = ok && digits()
	}
	if !ok {
		d.bad = true
		return nil, false
	}
	tok, d.i = b[d.i:i], i
	return tok, integer
}

// float converts as encoding/json does: strconv.ParseFloat on the
// literal, a range error failing the decode.
func (d *wireDecoder) float() float64 {
	tok, integer := d.number()
	if d.bad {
		return 0
	}
	if integer && len(tok) <= 15 {
		// Interval bounds, idle seconds and the zeros of an idle interval
		// — half a plan's numbers — are integers below 2^53, which
		// float64 holds exactly: no need for strconv to find that out.
		neg := tok[0] == '-'
		if neg {
			tok = tok[1:]
		}
		var n int64
		for _, c := range tok {
			n = n*10 + int64(c-'0')
		}
		if neg {
			return -float64(n)
		}
		return float64(n)
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	d.bad = err != nil
	return f
}

// int converts as encoding/json does for an int field: integer
// spellings only, overflow failing the decode.
func (d *wireDecoder) int() int {
	tok, integer := d.number()
	if d.bad {
		return 0
	}
	n, err := strconv.Atoi(string(tok))
	d.bad = err != nil || !integer
	return n
}

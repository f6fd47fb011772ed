package grid

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// wirePlan solves a day of n intervals over a convex table and returns
// the plan with its PGP1 body, as the server encodes it.
func wirePlan(tb testing.TB, n int) (*Plan, []byte) {
	tb.Helper()
	lt := convexTable(0.01, 60, 100, 2000, 100)
	sig := Generate(GenOptions{Intervals: n, IntervalS: 86400 / float64(n), Jitter: 0.1, Seed: 3})
	p, err := Optimize(lt, sig, Options{Target: 0.55 * sig.Horizon() / lt.TStar()})
	if err != nil {
		tb.Fatal(err)
	}
	body, err := p.MarshalBinary()
	if err != nil {
		tb.Fatal(err)
	}
	return p, body
}

// fillDistinct sets every field reachable from v to a distinct non-zero
// value: numbers count up from *next, bools are true, strings are
// spelled from the counter, slices get two elements.
func fillDistinct(v reflect.Value, next *int) {
	*next++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillDistinct(v.Field(i), next)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillDistinct(v.Index(i), next)
		}
	case reflect.Float64:
		v.SetFloat(float64(*next) + 0.5)
	case reflect.Int:
		v.SetInt(int64(*next))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString(strings.Repeat("o", *next))
	default:
		panic("fillDistinct: no rule for " + v.Type().String())
	}
}

// distinctPlan is a Plan with every field of Plan, Run, Slice and
// plan.Account set to its own value, each run one interval long (as
// slices require) and the objective the last code (carbon is code 0).
func distinctPlan() Plan {
	var p Plan
	n := 0
	fillDistinct(reflect.ValueOf(&p).Elem(), &n)
	p.Objective = ObjectiveEnergy
	for i := range p.Runs {
		p.Runs[i].Count = 1
	}
	return p
}

// TestDecodePlanCoversEveryField is the PGP1 body's drift alarm: a plan
// with every field set to its own value survives MarshalBinary and
// UnmarshalBinary. A field the body does not carry — one added to Plan,
// Run, Slice or plan.Account without a place in the layout — comes back
// zero and fails here.
func TestDecodePlanCoversEveryField(t *testing.T) {
	want := distinctPlan()
	body, err := want.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Plan
	if err := got.UnmarshalBinary(body); err != nil {
		t.Fatalf("UnmarshalBinary rejected MarshalBinary's own output: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decode differs:\n got %+v\nwant %+v", got, want)
	}
}

// TestPlanBodyLayout pins the bytes of a two-run plan, one of them
// time-shared between two points.
func TestPlanBodyLayout(t *testing.T) {
	p := Plan{
		Objective: ObjectiveCost, Target: 1, DeadlineS: 2, PowerScale: 3, Feasible: true,
		Iterations: 4, FinishS: 8, Price: -1,
		Runs: []Run{{Count: 3, Point: Idle}, {Count: 1, Slices: []Slice{{Point: 5, Seconds: 0.5}, {Point: 6, Seconds: 2}}}},
	}
	p.EnergyJ, p.CarbonG, p.CostUSD = 5, 6, 7
	body, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	want := "50475031" + "01" + "01" + // PGP1, cost, feasible
		"000000000000f03f" + "0000000000000040" + "0000000000000840" + // target, deadline, scale
		"0000000000001040" + "0000000000001440" + "0000000000001840" + // iterations, energy, carbon
		"0000000000001c40" + "0000000000002040" + "000000000000f0bf" + // cost, finish, price
		"02000000" + // two runs
		"03000000" + "ffffffff" + "00000000" + // 3 intervals idle
		"01000000" + "00000000" + "02000000" + // 1 interval, two slices
		"05000000" + "000000000000e03f" + "06000000" + "0000000000000040"
	if got := hex.EncodeToString(body); got != want {
		t.Fatalf("body\n %s\nwant\n %s", got, want)
	}
}

// header returns a PGP1 header with the objective and feasible codes
// given and a run count of runs.
func header(obj, feasible byte, runs uint32) []byte {
	b := append([]byte(planMagic), obj, feasible)
	b = append(b, make([]byte, 9*8)...)
	return le.AppendUint32(b, runs)
}

// run appends one run head to b.
func run(b []byte, count uint32, point int32, slices uint32) []byte {
	b = le.AppendUint32(b, count)
	b = le.AppendUint32(b, uint32(point))
	return le.AppendUint32(b, slices)
}

// slice appends one slice to b.
func slice(b []byte, point uint32, seconds float64) []byte {
	return le.AppendUint64(le.AppendUint32(b, point), math.Float64bits(seconds))
}

// refusals are PGP1 bodies UnmarshalBinary must refuse, one per rule.
var refusals = []struct {
	name string
	body []byte
}{
	{"empty", nil},
	{"header cut short", header(0, 0, 0)[:planHeaderSize-1]},
	{"wrong magic", append([]byte("PLT1"), header(0, 0, 0)[4:]...)},
	{"unknown objective", header(3, 0, 0)},
	{"feasible not 0 or 1", header(0, 2, 0)},
	{"run count past the bytes", header(0, 0, 1<<32-1)},
	{"run cut short", run(header(0, 0, 2), 1, 0, 0)},
	{"slice count past the bytes", run(header(0, 0, 1), 1, 0, 1<<32-1)},
	{"slice cut short", slice(run(header(0, 0, 1), 1, 0, 2), 0, 1)},
	{"trailing byte", append(run(header(0, 0, 1), 1, 0, 0), 0)},
	{"zero count", run(header(0, 0, 1), 0, 0, 0)},
	{"point below idle", run(header(0, 0, 1), 1, Idle-1, 0)},
	{"slices in a longer run", slice(run(header(0, 0, 1), 2, 0, 1), 0, 1)},
	{"negative slice", slice(run(header(0, 0, 1), 1, 0, 1), 0, -1)},
}

func TestPlanBodyRefusals(t *testing.T) {
	for _, r := range refusals {
		t.Run(r.name, func(t *testing.T) {
			p := distinctPlan()
			if err := p.UnmarshalBinary(r.body); err == nil {
				t.Fatalf("accepted %x as %+v", r.body, p)
			} else if !strings.Contains(err.Error(), "PGP1") {
				t.Fatalf("error %q does not name PGP1", err)
			}
			if !reflect.DeepEqual(p, distinctPlan()) {
				t.Fatal("a refused body changed the plan")
			}
		})
	}
}

// TestMarshalPlanRefusals holds MarshalBinary to the rules the decoder
// keeps, and to the objectives PGP1 has a code for.
func TestMarshalPlanRefusals(t *testing.T) {
	for name, edit := range map[string]func(p *Plan){
		"unresolved objective": func(p *Plan) { p.Objective = "" },
		"zero count":           func(p *Plan) { p.Runs[0].Count = 0 },
		"point below idle":     func(p *Plan) { p.Runs[0].Point = Idle - 1 },
		"point past int32":     func(p *Plan) { p.Runs[0].Point = math.MaxInt32 + 1 },
		"slices in a run of 2": func(p *Plan) { p.Runs[0].Count = 2 },
		"negative slice point": func(p *Plan) { p.Runs[0].Slices[1].Point = -1 },
		"negative slice":       func(p *Plan) { p.Runs[1].Slices[0].Seconds = -0.5 },
	} {
		p := distinctPlan()
		edit(&p)
		if body, err := p.MarshalBinary(); err == nil {
			t.Errorf("%s: encoded as %x", name, body)
		}
	}
}

// TestPlanBodyAllocs pins the decode of a 288-interval plan at two
// allocations (the runs, and the slices of the time-shared interval) and
// a refusal of a body claiming 2³²−1 runs at an error's few.
func TestPlanBodyAllocs(t *testing.T) {
	_, body := wirePlan(t, 288)
	var p Plan
	if n := testing.AllocsPerRun(20, func() {
		if err := p.UnmarshalBinary(body); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Fatalf("decode of a %d-byte body: %v allocations, want at most 2", len(body), n)
	}
	huge := header(0, 0, 1<<32-1)
	if n := testing.AllocsPerRun(20, func() { _ = p.UnmarshalBinary(huge) }); n > 10 {
		t.Fatalf("refusing 2³²−1 runs: %v allocations", n)
	}
}

// decodeSeeds are JSON plans, as a rollout or region plan carries one,
// on both sides of PGP1's boundary: ok says whether json.Unmarshal takes
// them and the PGP1 body carries them back.
var decodeSeeds = []struct {
	name string
	body string
	ok   bool
}{
	{"idle only", `{"objective":"carbon","target_iterations":1,"deadline_s":600,"power_scale":1,"feasible":false,"iterations":0,"energy_j":0,"carbon_g":0,"cost_usd":0,"finish_s":-1,"price":-1,"runs":[{"count":1,"point":-1}]}` + "\n", true},
	{"two slices", `{"objective":"cost","target_iterations":2.5,"deadline_s":300,"power_scale":2,"feasible":true,"iterations":2.5,"energy_j":10,"carbon_g":1,"cost_usd":0.5,"finish_s":250,"price":0.004,"runs":[{"count":3,"point":4},{"count":1,"slices":[{"point":4,"seconds":100},{"point":5,"seconds":150}]},{"count":7,"point":-1}]}`, true},
	{"exponents", `{"objective":"energy","target_iterations":1e21,"deadline_s":1e-7,"feasible":true,"iterations":1E+2,"energy_j":-0,"carbon_g":-1.5e-300,"cost_usd":0.0,"finish_s":1e0,"price":2E-3,"runs":[]}`, true},
	{"integers", `{"objective":"carbon","target_iterations":999999999999999,"deadline_s":9007199254740993,"feasible":true,"iterations":-12,"energy_j":-0,"carbon_g":123456789012345678901234567890,"cost_usd":0,"finish_s":-999999999999999,"price":-0,"runs":[{"count":1,"slices":[{"point":-0,"seconds":1}]}]}`, true},
	{"index overflow", `{"objective":"carbon","runs":[{"count":99999999999999999999}]}`, false},
	{"no intervals", `{"objective":"","target_iterations":0,"deadline_s":0,"power_scale":0,"feasible":false,"iterations":0,"energy_j":0,"carbon_g":0,"cost_usd":0,"finish_s":0,"price":0,"runs":[]}`, false},
	{"null intervals", `{"objective":"carbon","target_iterations":0,"deadline_s":0,"feasible":false,"runs":null}`, true},
	{"reordered keys", `{"runs":[{"point":2,"count":5}],"target_iterations":7,"objective":"carbon"}`, true},
	{"extra key", `{"objective":"carbon","version":2,"runs":[{"count":1,"index":4}]}`, true},
	{"duplicate key", `{"objective":"carbon","objective":"cost","runs":[{"count":2,"count":0}]}`, false},
	{"case-variant key", `{"Objective":"cost","TARGET_ITERATIONS":3,"Runs":[{"Count":1}]}`, true},
	{"escape", `{"objective":"c\u0061rbon"}`, true},
	{"whitespace", `{ "objective" : "carbon" , "runs" : [ { "count" : 1 } ] }`, true},
	{"empty slices", `{"objective":"carbon","runs":[{"count":2,"slices":[]}]}`, true},
	{"float index", `{"runs":[{"count":1.0}]}`, false},
	{"leading zero", `{"objective":"carbon","target_iterations":01}`, false},
	{"out of range", `{"objective":"carbon","target_iterations":1e999}`, false},
	{"truncated", `{"objective":"carbon","target_iterations":1`, false},
	{"trailing value", `{"objective":"carbon"}{}`, false},
	{"not an object", `[1,2]`, false},
	{"empty", ``, false},
}

// crossesToPGP1 checks the PGP1 body against the JSON form a plan keeps
// inside rollouts and region plans: of the plans json.Unmarshal takes,
// MarshalBinary encodes exactly those with a known objective and well
// formed runs (count ≥ 1, point ≥ Idle, slices only in a run of one,
// none below point 0 or 0 s), and each decodes back to the same plan
// (an empty runs or slices list coming back as the solver builds it).
func crossesToPGP1(t *testing.T, b []byte) (ok bool) {
	t.Helper()
	var want Plan
	if json.Unmarshal(b, &want) != nil {
		return false
	}
	carried := want.Objective == ObjectiveCarbon || want.Objective == ObjectiveCost || want.Objective == ObjectiveEnergy
	for _, r := range want.Runs {
		carried = carried && r.Count >= 1 && r.Point >= Idle && (len(r.Slices) == 0 || r.Count == 1)
		for _, sl := range r.Slices {
			carried = carried && sl.Point >= 0 && sl.Seconds >= 0
		}
	}
	body, err := want.MarshalBinary()
	if (err == nil) != carried {
		t.Fatalf("MarshalBinary error %v on %+v", err, want)
	}
	if err != nil {
		return false
	}
	var got Plan
	if err := got.UnmarshalBinary(body); err != nil {
		t.Fatalf("MarshalBinary's body of %+v refused: %v", want, err)
	}
	if want.Runs == nil {
		want.Runs = []Run{}
	}
	for i := range want.Runs {
		if len(want.Runs[i].Slices) == 0 {
			want.Runs[i].Slices = nil
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("PGP1 round trip differs:\n got %+v\nwant %+v", got, want)
	}
	return true
}

func TestDecodePlanMatchesJSON(t *testing.T) {
	for _, s := range decodeSeeds {
		t.Run(s.name, func(t *testing.T) {
			if ok := crossesToPGP1(t, []byte(s.body)); ok != s.ok {
				t.Fatalf("carried = %v, want %v", ok, s.ok)
			}
		})
	}
	for _, n := range []int{24, 288} {
		want, body := wirePlan(t, n)
		var got Plan
		if err := got.UnmarshalBinary(body); err != nil || !reflect.DeepEqual(&got, want) {
			t.Fatalf("%d intervals: decode of the served body: err=%v, equal=%v", n, err, reflect.DeepEqual(&got, want))
		}
		js, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		crossesToPGP1(t, js)
	}
}

// TestDecodePlanDoesNotAlias pins what lets a client pool its read
// buffer: nothing in the decoded plan points into the input, and one
// run's slices cannot grow into another's.
func TestDecodePlanDoesNotAlias(t *testing.T) {
	want := distinctPlan()
	body, err := want.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Plan
	if err := got.UnmarshalBinary(body); err != nil {
		t.Fatal(err)
	}
	for i := range body {
		body[i] = 'x'
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("the decoded plan changed when its input was overwritten")
	}
	for k := range got.Runs {
		got.Runs[k].Slices = append(got.Runs[k].Slices, Slice{Point: -1})
	}
	for k := range got.Runs {
		got.Runs[k].Slices = got.Runs[k].Slices[:len(got.Runs[k].Slices)-1]
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("appending to one run's slices overwrote another's")
	}
}

// FuzzDecodePlan feeds UnmarshalBinary any bytes: it must not panic,
// and a body it accepts must re-encode to itself, so a plan has one
// body. The seeds are the refusals, the bodies of the JSON seeds PGP1
// carries, and served plans of 24 and 288 intervals.
func FuzzDecodePlan(f *testing.F) {
	for _, r := range refusals {
		f.Add(r.body)
	}
	for _, s := range decodeSeeds {
		var p Plan
		if json.Unmarshal([]byte(s.body), &p) != nil {
			continue
		}
		if body, err := p.MarshalBinary(); err == nil {
			f.Add(body)
		}
	}
	for _, n := range []int{24, 288} {
		_, body := wirePlan(f, n)
		f.Add(body)
	}
	distinct := distinctPlan()
	body, err := distinct.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(body)
	f.Fuzz(func(t *testing.T, b []byte) {
		var p Plan
		if p.UnmarshalBinary(b) != nil {
			return
		}
		again, err := p.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted %x, but its plan does not encode: %v", b, err)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("accepted %x, which re-encodes as %x", b, again)
		}
	})
}

package grid

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// wirePlan solves a day of n intervals over a convex table and returns
// the plan with its wire body, spelled as the server spells it.
func wirePlan(tb testing.TB, n int) (*Plan, []byte) {
	tb.Helper()
	lt := convexTable(0.01, 60, 100, 2000, 100)
	sig := Generate(GenOptions{Intervals: n, IntervalS: 86400 / float64(n), Jitter: 0.1, Seed: 3})
	p, err := Optimize(lt, sig, Options{Target: 0.55 * sig.Horizon() / lt.TStar()})
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(p); err != nil {
		tb.Fatal(err)
	}
	return p, buf.Bytes()
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

// TestDecodePlanCoversEveryField is the wire form's drift alarm: a Plan
// with every field of Plan, Run, Slice and plan.Account set to its own
// value (each run one interval long, as slices require) survives
// encoding and DecodePlan. A field the encoding drops — untagged as
// "-", unexported, colliding with another's key — fails here.
func TestDecodePlanCoversEveryField(t *testing.T) {
	var want Plan
	n := 0
	fillDistinct(reflect.ValueOf(&want).Elem(), &n)
	for i := range want.Runs {
		want.Runs[i].Count = 1
	}
	body, err := json.Marshal(&want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodePlan(body)
	if err != nil {
		t.Fatalf("DecodePlan rejected encoding/json's own output: %v\n%s", err, body)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decode differs:\n got %+v\nwant %+v", got, want)
	}
}

// decodeSeeds are bodies on both sides of DecodePlan's boundary: ok
// says whether it accepts them.
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
	{"no intervals", `{"objective":"","target_iterations":0,"deadline_s":0,"power_scale":0,"feasible":false,"iterations":0,"energy_j":0,"carbon_g":0,"cost_usd":0,"finish_s":0,"price":0,"runs":[]}`, true},
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

// checkDecodeMatchesJSON is DecodePlan's contract: it rejects whatever
// json.Unmarshal rejects; what it accepts is json.Unmarshal's Plan;
// and it accepts exactly the plans whose runs are well formed, so an
// accepted plan re-encodes to a body it accepts again as the same plan.
func checkDecodeMatchesJSON(t *testing.T, b []byte) (accepted bool) {
	t.Helper()
	var want Plan
	wantErr := json.Unmarshal(b, &want)
	got, gotErr := DecodePlan(b)
	if wantErr != nil {
		if gotErr == nil {
			t.Fatalf("DecodePlan accepted %q, which json.Unmarshal rejects: %v", b, wantErr)
		}
		return false
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodePlan differs from json.Unmarshal on %q:\n got %+v\nwant %+v", b, got, want)
	}
	wellFormed := true
	for _, r := range want.Runs {
		wellFormed = wellFormed && r.Count >= 1 && r.Point >= Idle && (len(r.Slices) == 0 || r.Count == 1)
		for _, sl := range r.Slices {
			wellFormed = wellFormed && sl.Point >= 0 && sl.Seconds >= 0
		}
	}
	if (gotErr == nil) != wellFormed {
		t.Fatalf("DecodePlan error %v on runs %+v", gotErr, want.Runs)
	}
	if gotErr != nil {
		return false
	}
	// An empty slices array re-encodes as none, so compare encodings.
	again, err := json.Marshal(&got)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodePlan(again)
	if err != nil {
		t.Fatalf("re-encoded plan rejected: %v\n%s", err, again)
	}
	if third, _ := json.Marshal(&back); !bytes.Equal(third, again) {
		t.Fatalf("re-encoded plan does not decode back:\n%s\n%s", again, third)
	}
	return true
}

func TestDecodePlanMatchesJSON(t *testing.T) {
	for _, s := range decodeSeeds {
		t.Run(s.name, func(t *testing.T) {
			if ok := checkDecodeMatchesJSON(t, []byte(s.body)); ok != s.ok {
				t.Fatalf("DecodePlan accepted = %v, want %v", ok, s.ok)
			}
		})
	}
	for _, n := range []int{24, 288} {
		want, body := wirePlan(t, n)
		got, err := DecodePlan(body)
		if err != nil || !reflect.DeepEqual(&got, want) {
			t.Fatalf("%d intervals: decode of the served body: err=%v, equal=%v", n, err, reflect.DeepEqual(&got, want))
		}
		checkDecodeMatchesJSON(t, body)
	}
}

// TestDecodePlanDoesNotAlias pins what lets a client pool its read
// buffer: nothing in the decoded plan points into the input, and one
// run's slices cannot grow into another's.
func TestDecodePlanDoesNotAlias(t *testing.T) {
	_, body := wirePlan(t, 24)
	got, err := DecodePlan(body)
	if err != nil {
		t.Fatal(err)
	}
	var want Plan
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatal(err)
	}
	for i := range body {
		body[i] = 'x'
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("the decoded plan changed when its input was overwritten")
	}
	for k := range got.Runs {
		if s := got.Runs[k].Slices; len(s) > 0 {
			got.Runs[k].Slices = append(s, Slice{Point: -1})
		}
	}
	for k := range got.Runs {
		if s := got.Runs[k].Slices; len(s) > 0 {
			got.Runs[k].Slices = s[:len(s)-1]
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("appending to one run's slices overwrote another's")
	}
}

// FuzzDecodePlan is the differential test behind DecodePlan's doc
// comment: for arbitrary bytes it follows json.Unmarshal, rejects
// exactly the malformed runs, and round-trips what it accepts.
func FuzzDecodePlan(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s.body))
	}
	_, day := wirePlan(f, 288)
	f.Add(day)
	f.Fuzz(func(t *testing.T, b []byte) {
		checkDecodeMatchesJSON(t, b)
	})
}

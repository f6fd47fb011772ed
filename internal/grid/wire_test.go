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

// TestDecodePlanCoversEveryField is the codec's drift alarm: a Plan
// with every field of Plan, IntervalPlan, Slice and plan.Account set to
// its own value must decode on the one-pass path, not the encoding/json
// fallback. Adding, renaming or re-tagging a field changes the body
// json.Marshal emits and fails here until wire.go reads it.
func TestDecodePlanCoversEveryField(t *testing.T) {
	var want Plan
	n := 0
	fillDistinct(reflect.ValueOf(&want).Elem(), &n)
	body, err := json.Marshal(&want)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := decodePlanFast(body)
	if !ok {
		t.Fatalf("the one-pass decoder gave up on encoding/json's own output:\n%s", body)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("one-pass decode differs:\n got %+v\nwant %+v", got, want)
	}
}

// decodeSeeds are bodies on both sides of the one-pass decoder's
// boundary; canonical says which side.
var decodeSeeds = []struct {
	name      string
	body      string
	canonical bool
}{
	{"idle only", `{"objective":"carbon","target_iterations":1,"deadline_s":600,"feasible":false,"iterations":0,"energy_j":0,"carbon_g":0,"cost_usd":0,"finish_s":-1,"price":-1,"intervals":[{"index":0,"start_s":0,"end_s":600,"carbon_g_per_kwh":400,"price_usd_per_kwh":0.1,"idle_s":600,"iterations":0,"energy_j":0,"carbon_g":0,"cost_usd":0}]}` + "\n", true},
	{"two slices", `{"objective":"cost","target_iterations":2.5,"deadline_s":300,"feasible":true,"iterations":2.5,"energy_j":10,"carbon_g":1,"cost_usd":0.5,"finish_s":250,"price":0.004,"intervals":[{"index":3,"start_s":0,"end_s":300,"carbon_g_per_kwh":1,"price_usd_per_kwh":2,"slices":[{"point":4,"seconds":100},{"point":5,"seconds":150}],"idle_s":50,"iterations":2.5,"energy_j":10,"carbon_g":1,"cost_usd":0.5}]}`, true},
	{"exponents", `{"objective":"energy","target_iterations":1e21,"deadline_s":1e-7,"feasible":true,"iterations":1E+2,"energy_j":-0,"carbon_g":-1.5e-300,"cost_usd":0.0,"finish_s":1e0,"price":2E-3,"intervals":[]}`, true},
	{"integers", `{"objective":"carbon","target_iterations":999999999999999,"deadline_s":9007199254740993,"feasible":true,"iterations":-12,"energy_j":-0,"carbon_g":123456789012345678901234567890,"cost_usd":0,"finish_s":-999999999999999,"price":-0,"intervals":[{"index":-3,"start_s":0,"end_s":0,"carbon_g_per_kwh":0,"price_usd_per_kwh":0,"slices":[{"point":-0,"seconds":1}],"idle_s":0,"iterations":0,"energy_j":0,"carbon_g":0,"cost_usd":0}]}`, true},
	{"index overflow", `{"objective":"carbon","target_iterations":1,"deadline_s":1,"feasible":true,"iterations":1,"energy_j":1,"carbon_g":1,"cost_usd":1,"finish_s":1,"intervals":[{"index":99999999999999999999}]}`, false},
	{"no intervals", `{"objective":"","target_iterations":0,"deadline_s":0,"feasible":false,"iterations":0,"energy_j":0,"carbon_g":0,"cost_usd":0,"finish_s":0,"price":0,"intervals":[]}`, true},
	{"null intervals", `{"objective":"carbon","target_iterations":0,"deadline_s":0,"feasible":false,"iterations":0,"energy_j":0,"carbon_g":0,"cost_usd":0,"finish_s":0,"intervals":null}`, false},
	{"reordered keys", `{"target_iterations":7,"objective":"carbon","intervals":[{"end_s":9,"index":1}]}`, false},
	{"extra key", `{"objective":"carbon","version":2,"target_iterations":7}`, false},
	{"duplicate key", `{"objective":"carbon","objective":"cost"}`, false},
	{"case-variant key", `{"Objective":"cost","TARGET_ITERATIONS":3}`, false},
	{"escape", `{"objective":"c\u0061rbon"}`, false},
	{"whitespace", `{ "objective" : "carbon" }`, false},
	{"empty slices", `{"objective":"carbon","intervals":[{"index":0,"slices":[]}]}`, false},
	{"float index", `{"intervals":[{"index":1.0}]}`, false},
	{"leading zero", `{"objective":"carbon","target_iterations":01}`, false},
	{"out of range", `{"objective":"carbon","target_iterations":1e999}`, false},
	{"truncated", `{"objective":"carbon","target_iterations":1`, false},
	{"trailing value", `{"objective":"carbon"}{}`, false},
	{"not an object", `[1,2]`, false},
	{"empty", ``, false},
}

// checkDecodeMatchesJSON is the codec's contract: DecodePlan and
// json.Unmarshal agree on whether b is a Plan and on which Plan.
func checkDecodeMatchesJSON(t *testing.T, b []byte) {
	t.Helper()
	var want Plan
	wantErr := json.Unmarshal(b, &want)
	got, gotErr := DecodePlan(b)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("DecodePlan error %v, json.Unmarshal error %v, on %q", gotErr, wantErr, b)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodePlan differs from json.Unmarshal on %q:\n got %+v\nwant %+v", b, got, want)
	}
}

func TestDecodePlanMatchesJSON(t *testing.T) {
	for _, s := range decodeSeeds {
		t.Run(s.name, func(t *testing.T) {
			checkDecodeMatchesJSON(t, []byte(s.body))
			if _, ok := decodePlanFast([]byte(s.body)); ok != s.canonical {
				t.Fatalf("one-pass decoder accepted = %v, want %v", ok, s.canonical)
			}
		})
	}
	for _, n := range []int{24, 288} {
		want, body := wirePlan(t, n)
		got, ok := decodePlanFast(body)
		if !ok || !reflect.DeepEqual(&got, want) {
			t.Fatalf("%d intervals: one-pass decode of the served body: ok=%v, equal=%v", n, ok, reflect.DeepEqual(&got, want))
		}
		checkDecodeMatchesJSON(t, body)
	}
}

// TestDecodePlanDoesNotAlias pins what lets a client pool its read
// buffer: nothing in the decoded plan points into the input, and one
// interval's slices cannot grow into the next one's.
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
	for k := range got.Intervals {
		if s := got.Intervals[k].Slices; len(s) > 0 {
			got.Intervals[k].Slices = append(s, Slice{Point: -1})
		}
	}
	for k := range got.Intervals {
		if s := got.Intervals[k].Slices; len(s) > 0 {
			got.Intervals[k].Slices = s[:len(s)-1]
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("appending to one interval's slices overwrote another's")
	}
}

// FuzzDecodePlan is the differential test behind DecodePlan's doc
// comment: for arbitrary bytes it and json.Unmarshal accept the same
// inputs and produce DeepEqual plans.
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

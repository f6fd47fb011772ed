package api

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
)

// FuzzProfileUploadRoundTrip encodes a fuzzed upload — types interleaved
// in any order, frequencies repeated, floats anywhere in float64's range
// including subnormals, ±0 and the extremes — and decodes it again. Every
// float must come back with its bits, each type's measurements in their
// order, and the types in the order they first appear.
func FuzzProfileUploadRoundTrip(f *testing.F) {
	f.Add(75.0, []byte{0, 0, 1, 1, 0, 0, 2, 1, 1})
	f.Add(math.SmallestNonzeroFloat64, []byte{3, 1, 0, 3, 1, 0, 3, 0, 7, 1, 1, 255})
	f.Add(-0.0, []byte{})
	f.Add(math.MaxFloat64, []byte{9, 0, 4, 2, 1, 4, 9, 0, 4, 2, 1, 4, 9, 0, 4})
	f.Fuzz(func(t *testing.T, pBlocking float64, ops []byte) {
		if math.IsNaN(pBlocking) || math.IsInf(pBlocking, 0) {
			return // JSON has no such number; encoding fails, as before
		}
		extremes := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.MaxFloat64,
			math.MaxFloat64, 1e-7, 1e21, 0.1, 1.0 / 3, -2.5e-300, math.Nextafter(1, 2)}
		up := ProfileUpload{PBlocking: pBlocking}
		for k := 0; len(ops) >= 3; k, ops = k+1, ops[3:] {
			kind := "forward"
			if ops[1]&1 == 1 {
				kind = "backward"
			}
			x := math.Float64frombits(uint64(ops[0])<<56 | uint64(ops[1])<<40 | uint64(ops[2])<<8 | uint64(k))
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = extremes[k%len(extremes)]
			}
			up.Measurements = append(up.Measurements, MeasurementJSON{
				Virtual: int(ops[0] % 4), Kind: kind, Freq: 1410 - 15*int(ops[2]%8),
				Time: x, Energy: extremes[int(ops[2])%len(extremes)],
			})
		}
		buf, err := json.Marshal(up)
		if err != nil {
			t.Fatal(err)
		}
		var got ProfileUpload
		if err := json.Unmarshal(buf, &got); err != nil {
			t.Fatalf("decoding %s: %v", buf, err)
		}
		if math.Float64bits(got.PBlocking) != math.Float64bits(up.PBlocking) {
			t.Fatalf("p_blocking_w %v came back %v", up.PBlocking, got.PBlocking)
		}
		// The decoded measurements are the originals grouped by type, the
		// types in order of first appearance, a stable partition.
		var want []MeasurementJSON
		var seen []MeasurementJSON
		for _, m := range up.Measurements {
			first := true
			for _, s := range seen {
				if s.Virtual == m.Virtual && s.Kind == m.Kind {
					first = false
				}
			}
			if !first {
				continue
			}
			seen = append(seen, m)
			for _, o := range up.Measurements {
				if o.Virtual == m.Virtual && o.Kind == m.Kind {
					want = append(want, o)
				}
			}
		}
		if len(got.Measurements) != len(want) {
			t.Fatalf("%d measurements came back as %d", len(want), len(got.Measurements))
		}
		for i, w := range want {
			g := got.Measurements[i]
			if g.Virtual != w.Virtual || g.Kind != w.Kind || g.Freq != w.Freq ||
				math.Float64bits(g.Time) != math.Float64bits(w.Time) ||
				math.Float64bits(g.Energy) != math.Float64bits(w.Energy) {
				t.Fatalf("measurement %d: sent %+v, got %+v", i, w, g)
			}
		}
	})
}

// TestProfileUploadIsRows pins the body's shape: one row per type with
// parallel columns, and no per-measurement objects.
func TestProfileUploadIsRows(t *testing.T) {
	up := ProfileUpload{PBlocking: 75, Measurements: []MeasurementJSON{
		{Virtual: 0, Kind: "forward", Freq: 1410, Time: 0.5, Energy: 100},
		{Virtual: 0, Kind: "backward", Freq: 1410, Time: 1, Energy: 200},
		{Virtual: 0, Kind: "forward", Freq: 1395, Time: 0.25, Energy: 90},
	}}
	buf, err := json.Marshal(up)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"p_blocking_w":75,"types":[` +
		`{"virtual":0,"kind":"forward","freq_mhz":[1410,1395],"time_s":[0.5,0.25],"energy_j":[100,90]},` +
		`{"virtual":0,"kind":"backward","freq_mhz":[1410],"time_s":[1],"energy_j":[200]}]}`
	if string(buf) != want {
		t.Fatalf("body\n%s\nwant\n%s", buf, want)
	}
}

// TestProfileUploadRejects: rows whose columns differ in length, and the
// one-object-per-measurement body, are decode errors naming the fix.
func TestProfileUploadRejects(t *testing.T) {
	for _, tc := range []struct{ body, msg string }{
		{`{"types":[{"virtual":0,"kind":"forward","freq_mhz":[1410,1395],"time_s":[1],"energy_j":[3,4]}]}`, "2 frequencies, 1 times and 2 energies"},
		{`{"types":[{"virtual":1,"kind":"backward","freq_mhz":[1410],"time_s":[1],"energy_j":[]}]}`, "1 frequencies, 1 times and 0 energies"},
		{`{"p_blocking_w":75,"measurements":[{"virtual":0,"kind":"forward","freq_mhz":1410,"time_s":1,"energy_j":3}]}`, `"types"`},
		{`{"measurements":null}`, `"types"`},
	} {
		var up ProfileUpload
		err := json.Unmarshal([]byte(tc.body), &up)
		if err == nil || !strings.Contains(err.Error(), tc.msg) {
			t.Errorf("%s: error %v, want one containing %s", tc.body, err, tc.msg)
		}
	}
}

// referenceDecode reads a body with encoding/json: the oracle the
// hand-written UnmarshalJSON is held to.
func referenceDecode(data []byte) (ProfileUpload, error) {
	var body struct {
		profileBody
		Measurements json.RawMessage `json:"measurements"`
	}
	if err := json.Unmarshal(data, &body); err != nil {
		return ProfileUpload{}, err
	}
	if body.Measurements != nil {
		return ProfileUpload{}, errors.New("measurements")
	}
	up := ProfileUpload{PBlocking: body.PBlocking}
	for _, r := range body.Types {
		if len(r.Time) != len(r.Freq) || len(r.Energy) != len(r.Freq) {
			return ProfileUpload{}, errors.New("columns")
		}
		for i, f := range r.Freq {
			up.Measurements = append(up.Measurements, MeasurementJSON{
				Virtual: r.Virtual, Kind: r.Kind, Freq: f, Time: r.Time[i], Energy: r.Energy[i],
			})
		}
	}
	return up, nil
}

// FuzzProfileUploadDecode holds UnmarshalJSON to encoding/json on any
// well-formed body: both refuse it, or both read the same p_blocking_w
// and measurements, bit for bit. The seeds exercise the rules the two
// share — case-insensitive and escaped keys, unknown keys with nested
// values, nulls at every level, repeated keys decoding into what the
// first left, and whitespace. Malformed bytes, which the server hands it
// as read, must be refused: bad numbers, control bytes in strings and
// keys, a malformed skipped value, and anything after the body.
func FuzzProfileUploadDecode(f *testing.F) {
	row := `{"virtual":1,"kind":"forward","freq_mhz":[1410,1395],"time_s":[0.5,0.55],"energy_j":[100,95]}`
	for _, seed := range []string{
		`{"p_blocking_w":75,"types":[` + row + `]}`,
		` { "TYPES" : [ ` + row + ` , null , {} ] , "P_Blocking_W" : -0 } `,
		`{"\u0074ypes":[{"virtual":2,"kind":"back\u0077ard","freq_mhz":[1],"time_s":[1e-7],"energy_j":[1E21]}]}`,
		`{"extra":{"a":[1,{"b":"]}\""},true,null]},"types":[{"note":[[]],"virtual":0,"kind":"forward","freq_mhz":[5],"time_s":[2],"energy_j":[3]}]}`,
		`{"types":[` + row + `],"types":[{"virtual":4},{"kind":"x"}]}`,
		`{"types":[{"virtual":null,"kind":null,"freq_mhz":[7,null],"time_s":[1,2],"energy_j":null}]}`,
		`{"types":[{"freq_mhz":[1,2],"time_s":[1,2],"energy_j":[1,2],"time_s":[3]}]}`,
		`{"types":[{"freq_mhz":[1.5],"time_s":[1],"energy_j":[1]}]}`,
		`{"types":[{"freq_mhz":[1],"time_s":["1"],"energy_j":[1]}]}`,
		`{"types":[{"freq_mhz":[1],"time_s":[1e999],"energy_j":[1]}]}`,
		`{"measurements":[]}`,
		`{"types":{}}`,
		`[]`,
		`null`,
		`{"types":[{"freq_mhz":[1],"time_s":[1],"energy_j":[1]`,
		"{}\x00",
		`{"types":[]} {}`,
		"{\"ty\x01pes\":[]}",
		`{"types":[{"kind":"a` + "\t" + `b"}]}`,
		`{"p_blocking_w":01}`,
		`{"p_blocking_w":-}`,
		`{"types":[{"virtual":+1}]}`,
		`{"types":[{"time_s":[.5],"freq_mhz":[1],"energy_j":[1]}]}`,
		`{"extra":{"a":},"types":[]}`,
		`{"extra":[1 2],"types":[]}`,
		`{"extra":tru,"types":[]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if !json.Valid(data) {
			var up ProfileUpload
			if err := up.UnmarshalJSON(data); err == nil {
				t.Fatalf("malformed body %q decoded without an error", data)
			}
			return
		}
		var got ProfileUpload
		gotErr := json.Unmarshal(data, &got)
		want, wantErr := referenceDecode(data)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("body %s: UnmarshalJSON error %v, encoding/json error %v", data, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if math.Float64bits(got.PBlocking) != math.Float64bits(want.PBlocking) || len(got.Measurements) != len(want.Measurements) {
			t.Fatalf("body %s: read %v and %d measurements, encoding/json %v and %d",
				data, got.PBlocking, len(got.Measurements), want.PBlocking, len(want.Measurements))
		}
		for i, w := range want.Measurements {
			g := got.Measurements[i]
			if g.Virtual != w.Virtual || g.Kind != w.Kind || g.Freq != w.Freq ||
				math.Float64bits(g.Time) != math.Float64bits(w.Time) ||
				math.Float64bits(g.Energy) != math.Float64bits(w.Energy) {
				t.Fatalf("body %s: measurement %d read as %+v, encoding/json %+v", data, i, g, w)
			}
		}
	})
}

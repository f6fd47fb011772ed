package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
)

// profileBody is ProfileUpload's JSON form, and profileRow one computation
// type's measurements in it: three parallel columns in the order the
// measurements were taken.
type profileBody struct {
	PBlocking float64      `json:"p_blocking_w"`
	Types     []profileRow `json:"types"`
}

type profileRow struct {
	Virtual int       `json:"virtual"`
	Kind    string    `json:"kind"`
	Freq    []int     `json:"freq_mhz"`
	Time    []float64 `json:"time_s"`
	Energy  []float64 `json:"energy_j"`
}

// MarshalJSON writes one row per computation type, in the order the types
// first appear, each keeping its measurements' order.
func (up ProfileUpload) MarshalJSON() ([]byte, error) {
	type typeKey struct {
		virtual int
		kind    string
	}
	body := profileBody{PBlocking: up.PBlocking, Types: []profileRow{}}
	rows := map[typeKey]int{}
	for _, m := range up.Measurements {
		key := typeKey{m.Virtual, m.Kind}
		i, ok := rows[key]
		if !ok {
			i = len(body.Types)
			rows[key] = i
			body.Types = append(body.Types, profileRow{Virtual: m.Virtual, Kind: m.Kind})
		}
		r := &body.Types[i]
		r.Freq = append(r.Freq, m.Freq)
		r.Time = append(r.Time, m.Time)
		r.Energy = append(r.Energy, m.Energy)
	}
	return json.Marshal(body)
}

// UnmarshalJSON reads the rows back into Measurements, row after row.
// Every type's measurements keep their order; the interleaving of types
// does not survive, and nothing downstream reads it. A row whose columns
// differ in length is an error, and so is a body that lists its
// measurements one object each under "measurements".
//
// The body is read by hand, not by encoding/json: a profile is a thousand
// or more numbers on the first schedule's critical path, and reflection
// and a second validating scan cost encoding/json as much again as
// parsing them. It follows encoding/json's rules for the fields it reads:
// keys match case-insensitively, unknown keys are skipped, null leaves a
// value as it was (a null array is nil), and a repeated key decodes again
// into what the first left, an array into its slice's storage. It also
// rejects whatever encoding/json's validating scan would — malformed
// numbers, strings or skipped values, and anything after the body — so
// it can be handed a request body as read.
func (up *ProfileUpload) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		return nil
	}
	d := &decoder{data: data}
	var body profileBody
	err := d.object(func(key []byte) error {
		switch {
		case keyIs(key, "p_blocking_w"):
			return d.float(&body.PBlocking)
		case keyIs(key, "types"):
			return array(d, &body.Types, d.row)
		case keyIs(key, "measurements"):
			return errors.New(`profile upload: "measurements" is not read; send one row per computation type in "types"`)
		}
		return d.skip()
	})
	if err == nil {
		err = d.end()
	}
	if err != nil {
		return err
	}
	n := 0
	for _, r := range body.Types {
		if len(r.Time) != len(r.Freq) || len(r.Energy) != len(r.Freq) {
			return fmt.Errorf("profile upload: type %d %q has %d frequencies, %d times and %d energies",
				r.Virtual, r.Kind, len(r.Freq), len(r.Time), len(r.Energy))
		}
		n += len(r.Freq)
	}
	*up = ProfileUpload{PBlocking: body.PBlocking, Measurements: make([]MeasurementJSON, 0, n)}
	for _, r := range body.Types {
		for i, f := range r.Freq {
			up.Measurements = append(up.Measurements, MeasurementJSON{
				Virtual: r.Virtual, Kind: r.Kind, Freq: f, Time: r.Time[i], Energy: r.Energy[i],
			})
		}
	}
	return nil
}

// row reads one element of "types".
func (d *decoder) row(r *profileRow) error {
	return d.object(func(key []byte) error {
		switch {
		case keyIs(key, "virtual"):
			return d.int(&r.Virtual)
		case keyIs(key, "kind"):
			return d.string(&r.Kind)
		case keyIs(key, "freq_mhz"):
			return array(d, &r.Freq, d.int)
		case keyIs(key, "time_s"):
			return array(d, &r.Time, d.float)
		case keyIs(key, "energy_j"):
			return array(d, &r.Energy, d.float)
		}
		return d.skip()
	})
}

// keyIs reports whether an object key names the field name, the way
// encoding/json matches them.
func keyIs(key []byte, name string) bool {
	return bytes.EqualFold(key, []byte(name))
}

// decoder reads one JSON value from data, rejecting malformed JSON: it
// checks the structure and the literals it reads, and a skipped value
// with json.Valid.
type decoder struct {
	data []byte
	at   int
}

var errSyntax = errors.New("profile upload: malformed JSON")

// peek skips whitespace and returns the next byte, 0 at the end.
func (d *decoder) peek() byte {
	for ; d.at < len(d.data); d.at++ {
		switch c := d.data[d.at]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// null consumes a null if one is next.
func (d *decoder) null() bool {
	if d.peek() == 'n' && bytes.HasPrefix(d.data[d.at:], []byte("null")) {
		d.at += 4
		return true
	}
	return false
}

// end checks that nothing but whitespace follows the value (by position:
// peek's 0 could be a NUL byte).
func (d *decoder) end() error {
	d.peek()
	if d.at < len(d.data) {
		return errSyntax
	}
	return nil
}

// object calls field with each key of an object, positioned at its
// value; field must consume the value. A null is an object with no keys.
func (d *decoder) object(field func(key []byte) error) error {
	if d.null() {
		return nil
	}
	if d.peek() != '{' {
		return errors.New("profile upload: expected an object")
	}
	d.at++
	if d.peek() == '}' {
		d.at++
		return nil
	}
	for {
		tok, err := d.token()
		if err != nil {
			return err
		}
		key := tok[1 : len(tok)-1]
		if bytes.IndexByte(key, '\\') >= 0 {
			var s string
			if err := json.Unmarshal(tok, &s); err != nil {
				return err
			}
			key = []byte(s)
		}
		if d.peek() != ':' {
			return errSyntax
		}
		d.at++
		if err := field(key); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.at++
		case '}':
			d.at++
			return nil
		default:
			return errSyntax
		}
	}
}

// array reads an array into *s, each element by elem. Like encoding/json
// it reuses the slice's storage, so an element decodes into whatever the
// storage held (a null element leaves it as it was); a null array is nil.
func array[T any](d *decoder, s *[]T, elem func(*T) error) error {
	if d.null() {
		*s = nil
		return nil
	}
	if d.peek() != '[' {
		return errors.New("profile upload: expected an array")
	}
	d.at++
	out := (*s)[:0]
	if d.peek() == ']' {
		d.at++
		*s = out
		return nil
	}
	for {
		if len(out) < cap(out) {
			out = out[:len(out)+1]
		} else {
			var zero T
			out = append(out, zero)
		}
		if err := elem(&out[len(out)-1]); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.at++
		case ']':
			d.at++
			*s = out
			return nil
		default:
			return errSyntax
		}
	}
}

// token consumes a string and returns it with its quotes. A control
// byte inside is an error; escapes are checked by whoever unquotes it.
func (d *decoder) token() ([]byte, error) {
	if d.peek() != '"' {
		return nil, errSyntax
	}
	start := d.at
	for d.at++; d.at < len(d.data); d.at++ {
		switch c := d.data[d.at]; {
		case c < 0x20:
			return nil, errSyntax
		case c == '\\':
			d.at++
		case c == '"':
			d.at++
			return d.data[start:d.at], nil
		}
	}
	return nil, errSyntax
}

// literal consumes a number or true, false or null, and returns it.
func (d *decoder) literal() []byte {
	d.peek()
	start := d.at
	for ; d.at < len(d.data); d.at++ {
		switch d.data[d.at] {
		case ',', '}', ']', ':', ' ', '\t', '\n', '\r', '"', '{', '[':
			return d.data[start:d.at]
		}
	}
	return d.data[start:]
}

// number consumes a literal and checks it is a JSON number,
// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?, which strconv alone
// would not (it takes "+1", "01", ".5", "1.", "Inf" and "0x1p-2").
func (d *decoder) number() ([]byte, error) {
	lit := d.literal()
	i := 0
	digits := func() int {
		n := 0
		for ; i < len(lit) && '0' <= lit[i] && lit[i] <= '9'; i++ {
			n++
		}
		return n
	}
	if i < len(lit) && lit[i] == '-' {
		i++
	}
	ok := true
	if i < len(lit) && lit[i] == '0' {
		i++
	} else {
		ok = digits() > 0
	}
	if ok && i < len(lit) && lit[i] == '.' {
		i++
		ok = digits() > 0
	}
	if ok && i < len(lit) && (lit[i] == 'e' || lit[i] == 'E') {
		if i++; i < len(lit) && (lit[i] == '+' || lit[i] == '-') {
			i++
		}
		ok = digits() > 0
	}
	if !ok || i != len(lit) {
		return nil, fmt.Errorf("profile upload: malformed number %q", lit)
	}
	return lit, nil
}

// float reads a number into *f; null leaves it.
func (d *decoder) float(f *float64) error {
	if d.null() {
		return nil
	}
	lit, err := d.number()
	if err != nil {
		return err
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return fmt.Errorf("profile upload: %w", err)
	}
	*f = v
	return nil
}

// int reads an integer into *n; null leaves it.
func (d *decoder) int(n *int) error {
	if d.null() {
		return nil
	}
	lit, err := d.number()
	if err != nil {
		return err
	}
	v, err := strconv.ParseInt(string(lit), 10, 0)
	if err != nil {
		return fmt.Errorf("profile upload: %w", err)
	}
	*n = int(v)
	return nil
}

// string reads a string into *s; null leaves it.
func (d *decoder) string(s *string) error {
	if d.null() {
		return nil
	}
	tok, err := d.token()
	if err != nil {
		return err
	}
	return json.Unmarshal(tok, s)
}

// skip consumes one value of any kind: it finds the value's end by its
// brackets and strings, then checks the span with json.Valid.
func (d *decoder) skip() error {
	d.peek()
	start := d.at
	if err := d.span(); err != nil {
		return err
	}
	if !json.Valid(d.data[start:d.at]) {
		return errSyntax
	}
	return nil
}

// span consumes the bytes of one value, matching brackets and strings.
func (d *decoder) span() error {
	depth := 0
	for {
		switch d.peek() {
		case 0:
			return errSyntax
		case '{', '[':
			d.at++
			depth++
			continue
		case '}', ']':
			d.at++
			depth--
		case ',', ':':
			d.at++
			continue
		case '"':
			if _, err := d.token(); err != nil {
				return err
			}
		default:
			if len(d.literal()) == 0 {
				return errSyntax
			}
		}
		if depth <= 0 {
			return nil
		}
	}
}

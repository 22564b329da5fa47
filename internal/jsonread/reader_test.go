package jsonread

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// same decodes doc with encoding/json and with read, both starting from
// start, and fails unless they accept alike and agree on the value.
func same[T any](t *testing.T, doc string, start T, read func(*Reader, *T)) {
	t.Helper()
	want, got := start, start
	werr := json.Unmarshal([]byte(doc), &want)
	r := New([]byte(doc))
	read(r, &got)
	gerr := r.End()
	if (werr == nil) != (gerr == nil) {
		t.Errorf("%T %q: encoding/json err=%v, reader err=%v", start, doc, werr, gerr)
		return
	}
	if werr == nil && !reflect.DeepEqual(got, want) {
		t.Errorf("%T %q: reader %#v, encoding/json %#v", start, doc, got, want)
	}
}

var scalarDocs = []string{
	`0`, `-0`, `7`, ` 42 `, `127`, `128`, `-128`, `-129`, `2147483647`, `2147483648`,
	`9223372036854775807`, `9223372036854775808`, `-9223372036854775808`,
	`18446744073709551615`, `18446744073709551616`, `123456789012345678`,
	`1.0`, `2.5`, `-0.0`, `1e1`, `1E+2`, `1e-2`, `1e400`, `1e-400`,
	`01`, `-`, `1.`, `.5`, `+1`, `1e`, `1e+`, `0x10`,
	`"5"`, `null`, `nul`, `true`, `false`, `tru`, `[]`, `{}`,
	`"plain"`, `"aé\n\t\"\\\/"`, `"𝄞"`, `"\ud800"`, "\"\xff\xfe\"", `"\x"`, `"\u12"`,
	"\"tab\there\"", `"unterminated`, ``, `   `, `7 8`, `null x`,
}

func TestScalarsMatchEncodingJSON(t *testing.T) {
	for _, doc := range scalarDocs {
		same(t, doc, int8(3), Int[int8])
		same(t, doc, int32(3), Int[int32])
		same(t, doc, int64(3), Int[int64])
		same(t, doc, 3, Int[int])
		same(t, doc, uint64(3), Uint)
		same(t, doc, 3.5, Float)
		same(t, doc, "x", String)
		same(t, doc, true, Bool)
	}
}

type pair struct{ A, B int64 }

var pairFields = []string{"A", "B"}

func readPair(r *Reader, p *pair) {
	if r.Null() {
		return
	}
	for more := r.Object(); more; more = r.More() {
		switch r.Key(pairFields) {
		case "A":
			Int(r, &p.A)
		case "B":
			Int(r, &p.B)
		default:
			r.Skip()
		}
	}
}

// TestSliceReusesElementsLikeEncodingJSON decodes a sequence of arrays into
// one slice: element i decodes into the existing element i, including the
// capacity a longer earlier array left behind, exactly as encoding/json
// does.
func TestSliceReusesElementsLikeEncodingJSON(t *testing.T) {
	docs := []string{
		`[{"A":1,"B":2},{"A":3,"B":4},{"A":5,"B":6}]`,
		`[{"A":7}]`,
		`[{"b":8},{"a":9}]`,
		`[null,{"B":1},{}]`,
		`[{"A":1,"B":2},{"A":3,"B":4},{"A":5,"B":6},{"A":7,"B":8},{"A":9,"B":10}]`,
		`null`,
		`[]`,
		`[{"A":1,"extra":[1,{"x":null}]}]`,
	}
	var want, got []pair
	for _, doc := range docs {
		if err := json.Unmarshal([]byte(doc), &want); err != nil {
			t.Fatalf("%s: encoding/json: %v", doc, err)
		}
		r := New([]byte(doc))
		got = Slice(r, got, readPair)
		if err := r.End(); err != nil {
			t.Fatalf("%s: reader: %v", doc, err)
		}
		if !reflect.DeepEqual(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("%s: reader %#v, encoding/json %#v", doc, got, want)
		}
		if len(got) > 0 && cap(got) != cap(want) {
			t.Fatalf("%s: reader cap %d, encoding/json cap %d", doc, cap(got), cap(want))
		}
	}
}

// TestSkipAndDepth: Skip validates what it skips, and nesting is limited
// where encoding/json limits it.
func TestSkipAndDepth(t *testing.T) {
	for _, doc := range []string{
		`{"a":[1,2,{"b":null,"c":"A"}],"d":true}`, `[1,]`, `{"a":1,}`, `{"a" 1}`, `{1:2}`,
		`[1 2]`, `{"a":"\q"}`, `[-01]`, `["a","b"]x`,
		strings.Repeat("[", 10000) + strings.Repeat("]", 10000),
		strings.Repeat("[", 10001) + strings.Repeat("]", 10001),
		strings.Repeat(`{"a":`, 10001) + "1" + strings.Repeat("}", 10001),
	} {
		var v any
		werr := json.Unmarshal([]byte(doc), &v)
		r := New([]byte(doc))
		r.Skip()
		if gerr := r.End(); (werr == nil) != (gerr == nil) {
			short := doc
			if len(short) > 40 {
				short = short[:40] + "…"
			}
			t.Errorf("%q: encoding/json err=%v, reader err=%v", short, werr, gerr)
		}
	}
}

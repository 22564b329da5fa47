// Package jsonread is a one-pass reader over a JSON document held in
// memory. A decoder walks the document with it field by field, writing
// each value straight into its destination: there is no token stream, no
// intermediate tree and no reflection.
//
// The reader follows encoding/json's decoding rules for every value kind
// the repository's wire types use, so that a hand-written decoder accepts
// and rejects exactly what json.Unmarshal does and produces the same
// values:
//
//   - member names are unquoted, then matched exactly, then
//     case-insensitively (Key); unknown members are skipped but must still
//     be valid JSON (Skip);
//   - null leaves a scalar unchanged (every typed read starts with Null)
//     and sets a slice to nil (Slice); [] gives a non-nil empty slice;
//   - a repeated member decodes into the value already there, and an array
//     decodes element i into the existing element i before the slice is cut
//     to the new length (Slice);
//   - integer fields take only integer literals that fit their type, so
//     2.0, 1e1, out-of-range values and quoted numbers are errors (Int,
//     Uint); floats are parsed by strconv.ParseFloat(…, 64) (Float);
//   - a string holding a backslash or a byte ≥ 0x80 is unquoted by
//     encoding/json itself, so escapes and invalid UTF-8 come out the same;
//   - nesting deeper than encoding/json's limit is an error.
//
// Errors are sticky: the first one stops the reader, every later read is
// a no-op, and Err reports it. Decoders therefore need no error plumbing;
// they check Err once at the end.
package jsonread

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

// Reader reads one JSON document from a byte slice.
type Reader struct {
	data  []byte
	pos   int
	depth int
	err   error
}

// New returns a reader positioned at the start of data.
func New(data []byte) *Reader { return &Reader{data: data} }

// Err returns the first error the reader met, or nil.
func (r *Reader) Err() error { return r.err }

// End checks that nothing but whitespace follows the value just read, as
// json.Unmarshal requires, and returns the reader's error.
func (r *Reader) End() error {
	if r.err == nil && r.skipSpace() {
		r.fail("invalid character %s after top-level value", quoteChar(r.data[r.pos]))
	}
	return r.err
}

// Fail records err, found by a decoder in a value that reads fine but is
// invalid, as the reader's error; the reader stops as on a syntax error.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// AtEOF reports whether only whitespace remains.
func (r *Reader) AtEOF() bool { return r.err == nil && !r.skipSpace() }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("json: "+format+" (offset %d)", append(args, r.pos)...)
	}
}

// skipSpace advances past whitespace and reports whether a byte remains.
func (r *Reader) skipSpace() bool {
	for r.pos < len(r.data) {
		switch r.data[r.pos] {
		case ' ', '\t', '\n', '\r':
			r.pos++
		default:
			return true
		}
	}
	return false
}

// mismatch fails on a value of the wrong kind for a destination of kind
// want: a type error when a JSON value starts there, else a syntax error.
func (r *Reader) mismatch(want string) {
	if !r.skipSpace() {
		r.fail("unexpected end of JSON input")
		return
	}
	var got string
	switch c := r.data[r.pos]; {
	case c == '{':
		got = "object"
	case c == '[':
		got = "array"
	case c == '"':
		got = "string"
	case c == '-' || '0' <= c && c <= '9':
		got = "number"
	case c == 't' || c == 'f':
		got = "bool"
	case c == 'n':
		got = "null"
	default:
		r.fail("invalid character %s looking for beginning of value", quoteChar(c))
		return
	}
	r.fail("cannot unmarshal %s into %s", got, want)
}

func quoteChar(c byte) string {
	if c == '\'' {
		return `'\''`
	}
	if c == '"' {
		return `'"'`
	}
	s := strconv.Quote(string(rune(c)))
	return "'" + s[1:len(s)-1] + "'"
}

// Null consumes a null literal and reports whether there was one. It also
// reports true once the reader has failed, so that a decoder stops
// descending into a value it cannot read.
func (r *Reader) Null() bool {
	if r.err != nil {
		return true
	}
	if r.skipSpace() && r.data[r.pos] == 'n' {
		r.literal("null")
		return true
	}
	return false
}

func (r *Reader) literal(word string) {
	for i := 0; i < len(word); i++ {
		if r.pos >= len(r.data) {
			r.fail("unexpected end of JSON input")
			return
		}
		if r.data[r.pos] != word[i] {
			r.fail("invalid character %s in literal %s", quoteChar(r.data[r.pos]), word)
			return
		}
		r.pos++
	}
}

// open consumes the opening delimiter c of a container of kind want.
func (r *Reader) open(c byte, want string) bool {
	if r.err != nil {
		return false
	}
	if !r.skipSpace() || r.data[r.pos] != c {
		r.mismatch(want)
		return false
	}
	r.pos++
	if r.depth++; r.depth > maxDepth {
		r.fail("exceeded max depth")
		return false
	}
	return true
}

// more is the separator step shared by objects and arrays: after a member
// or element it consumes ',' and reports true, or consumes the closing
// delimiter and reports false.
func (r *Reader) more(closer byte) bool {
	if r.err != nil {
		return false
	}
	if r.skipSpace() {
		switch r.data[r.pos] {
		case ',':
			r.pos++
			return true
		case closer:
			r.pos++
			r.depth--
			return false
		}
		if closer == '}' {
			r.fail("invalid character %s after object key:value pair", quoteChar(r.data[r.pos]))
		} else {
			r.fail("invalid character %s after array element", quoteChar(r.data[r.pos]))
		}
		return false
	}
	r.fail("unexpected end of JSON input")
	return false
}

// empty consumes closer right after an opening delimiter, if it is there.
func (r *Reader) empty(closer byte) bool {
	if r.skipSpace() && r.data[r.pos] == closer {
		r.pos++
		r.depth--
		return true
	}
	return false
}

// Object consumes the '{' that opens an object and reports whether a
// member follows. A value that is not an object is an error. Iterate with
//
//	for more := r.Object(); more; more = r.More() {
//		switch r.Key(fields) { ... default: r.Skip() }
//	}
func (r *Reader) Object() bool {
	return r.open('{', "object") && !r.empty('}')
}

// More steps past the ',' between members and reports true, or past the
// closing '}' and reports false.
func (r *Reader) More() bool { return r.more('}') }

// array consumes the '[' that opens an array and reports whether an
// element follows; iterate with elem as Object iterates with More.
func (r *Reader) array() bool {
	return r.open('[', "array") && !r.empty(']')
}

// elem steps past the ',' between elements and reports true, or past the
// closing ']' and reports false.
func (r *Reader) elem() bool { return r.more(']') }

// Key reads a member name and the ':' after it and returns the entry of
// fields the name selects, or "" when it selects none: an exact match
// wins, else the first case-insensitive one, as in encoding/json.
func (r *Reader) Key(fields []string) string {
	if r.err != nil {
		return ""
	}
	if !r.skipSpace() || r.data[r.pos] != '"' {
		if r.pos < len(r.data) {
			r.fail("invalid character %s looking for beginning of object key string", quoteChar(r.data[r.pos]))
		} else {
			r.fail("unexpected end of JSON input")
		}
		return ""
	}
	name, plain := r.scanString()
	switch {
	case r.err != nil:
		return ""
	case !r.skipSpace():
		r.fail("unexpected end of JSON input")
		return ""
	case r.data[r.pos] != ':':
		r.fail("invalid character %s after object key", quoteChar(r.data[r.pos]))
		return ""
	}
	r.pos++
	if len(fields) == 0 {
		return ""
	}
	if !plain {
		name = []byte(r.unquote(name))
	}
	for _, f := range fields {
		if string(name) == f {
			return f
		}
	}
	for _, f := range fields {
		if strings.EqualFold(string(name), f) {
			return f
		}
	}
	return ""
}

// scanString consumes the string token at r.pos, validating it. plain
// reports that it holds no backslash and no byte ≥ 0x80; raw is then the
// content between the quotes, else the whole token, quotes included.
func (r *Reader) scanString() (raw []byte, plain bool) {
	start := r.pos
	plain = true
	for i := start + 1; i < len(r.data); {
		switch c := r.data[i]; {
		case c == '"':
			r.pos = i + 1
			if plain {
				return r.data[start+1 : i], true
			}
			return r.data[start : i+1], false
		case c == '\\':
			plain = false
			if i+1 >= len(r.data) {
				r.pos = len(r.data)
				r.fail("unexpected end of JSON input")
				return nil, false
			}
			switch r.data[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				for k := i + 2; k < i+6; k++ {
					if k >= len(r.data) {
						r.pos = len(r.data)
						r.fail("unexpected end of JSON input")
						return nil, false
					}
					if !isHex(r.data[k]) {
						r.pos = k
						r.fail("invalid character %s in \\u hexadecimal character escape", quoteChar(r.data[k]))
						return nil, false
					}
				}
				i += 6
			default:
				r.pos = i + 1
				r.fail("invalid character %s in string escape code", quoteChar(r.data[i+1]))
				return nil, false
			}
		case c < 0x20:
			r.pos = i
			r.fail("invalid character %s in string literal", quoteChar(c))
			return nil, false
		default:
			if c >= 0x80 {
				plain = false
			}
			i++
		}
	}
	r.pos = len(r.data)
	r.fail("unexpected end of JSON input")
	return nil, false
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// unquote decodes a validated string token that needs escape or UTF-8
// handling, through encoding/json so that the result is the same.
func (r *Reader) unquote(tok []byte) string {
	var s string
	if err := json.Unmarshal(tok, &s); err != nil {
		r.fail("%v", err)
	}
	return s
}

// scanNumber consumes the number token at r.pos, validating its grammar,
// and returns it.
func (r *Reader) scanNumber() []byte {
	start, i, n := r.pos, r.pos, len(r.data)
	if i < n && r.data[i] == '-' {
		i++
	}
	switch {
	case i < n && r.data[i] == '0':
		i++
	case i < n && '1' <= r.data[i] && r.data[i] <= '9':
		i = digits(r.data, i+1)
	default:
		r.pos = i
		r.badNumber()
		return nil
	}
	if i < n && r.data[i] == '.' {
		if i+1 >= n || !isDigit(r.data[i+1]) {
			r.pos = i + 1
			r.badNumber()
			return nil
		}
		i = digits(r.data, i+1)
	}
	if i < n && (r.data[i] == 'e' || r.data[i] == 'E') {
		i++
		if i < n && (r.data[i] == '+' || r.data[i] == '-') {
			i++
		}
		if i >= n || !isDigit(r.data[i]) {
			r.pos = i
			r.badNumber()
			return nil
		}
		i = digits(r.data, i)
	}
	r.pos = i
	return r.data[start:i]
}

func (r *Reader) badNumber() {
	if r.pos >= len(r.data) {
		r.fail("unexpected end of JSON input")
		return
	}
	r.fail("invalid character %s in numeric literal", quoteChar(r.data[r.pos]))
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func digits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

// number returns the next value's number token, failing on any other kind
// of value; want names the destination type for the error.
func (r *Reader) number(want string) []byte {
	if r.skipSpace() {
		if c := r.data[r.pos]; c == '-' || isDigit(c) {
			return r.scanNumber()
		}
	}
	r.mismatch(want)
	return nil
}

// Skip consumes one value of any kind, validating it.
func (r *Reader) Skip() {
	if r.err != nil {
		return
	}
	if !r.skipSpace() {
		r.fail("unexpected end of JSON input")
		return
	}
	switch c := r.data[r.pos]; {
	case c == '{':
		for more := r.Object(); more; more = r.More() {
			r.Key(nil)
			r.Skip()
		}
	case c == '[':
		for more := r.array(); more; more = r.elem() {
			r.Skip()
		}
	case c == '"':
		r.scanString()
	case c == '-' || isDigit(c):
		r.scanNumber()
	case c == 't':
		r.literal("true")
	case c == 'f':
		r.literal("false")
	case c == 'n':
		r.literal("null")
	default:
		r.fail("invalid character %s looking for beginning of value", quoteChar(c))
	}
}

// Integer is the set of signed integer destinations Int decodes into.
type Integer interface {
	~int8 | ~int16 | ~int32 | ~int64 | ~int
}

// Int decodes an integer literal that fits T into *p; null leaves *p as
// it is.
func Int[T Integer](r *Reader, p *T) {
	if r.Null() {
		return
	}
	tok := r.number("integer")
	if r.err != nil {
		return
	}
	v, ok := parseInt(tok)
	if !ok || int64(T(v)) != v {
		r.fail("cannot unmarshal number %s into %T", tok, *p)
		return
	}
	*p = T(v)
}

// parseInt parses a validated number token as an int64, failing on
// fractions, exponents and overflow.
func parseInt(tok []byte) (int64, bool) {
	neg := tok[0] == '-'
	ds := tok
	if neg {
		ds = tok[1:]
	}
	if len(ds) > 18 { // may overflow: let strconv judge
		v, err := strconv.ParseInt(string(tok), 10, 64)
		return v, err == nil
	}
	var v int64
	for _, c := range ds {
		if !isDigit(c) {
			return 0, false
		}
		v = v*10 + int64(c-'0')
	}
	if neg {
		v = -v
	}
	return v, true
}

// Uint decodes an unsigned integer literal into *p; null leaves *p as it
// is.
func Uint(r *Reader, p *uint64) {
	if r.Null() {
		return
	}
	tok := r.number("uint64")
	if r.err != nil {
		return
	}
	v, err := strconv.ParseUint(string(tok), 10, 64)
	if err != nil {
		r.fail("cannot unmarshal number %s into uint64", tok)
		return
	}
	*p = v
}

// Float decodes a number into *p with strconv.ParseFloat(…, 64); null
// leaves *p as it is.
func Float(r *Reader, p *float64) {
	if r.Null() {
		return
	}
	tok := r.number("float64")
	if r.err != nil {
		return
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		r.fail("cannot unmarshal number %s into float64", tok)
		return
	}
	*p = v
}

// String decodes a string into *p; null leaves *p as it is.
func String(r *Reader, p *string) {
	if r.Null() {
		return
	}
	if !r.skipSpace() || r.data[r.pos] != '"' {
		r.mismatch("string")
		return
	}
	raw, plain := r.scanString()
	switch {
	case r.err != nil:
	case plain:
		*p = string(raw)
	default:
		if s := r.unquote(raw); r.err == nil {
			*p = s
		}
	}
}

// Bool decodes true or false into *p; null leaves *p as it is.
func Bool(r *Reader, p *bool) {
	if r.Null() {
		return
	}
	if r.skipSpace() {
		switch r.data[r.pos] {
		case 't':
			r.literal("true")
			if r.err == nil {
				*p = true
			}
			return
		case 'f':
			r.literal("false")
			if r.err == nil {
				*p = false
			}
			return
		}
	}
	r.mismatch("bool")
}

// Slice decodes an array into s element by element with elem, the way
// encoding/json fills a slice: element i decodes into the existing
// element i (so a repeated member overwrites in place, and capacity left
// over from a longer earlier value is reused as it stands), and the slice
// is then cut to the array's length. null returns nil; [] returns a
// non-nil empty slice.
func Slice[T any](r *Reader, s []T, elem func(*Reader, *T)) []T {
	if r.Null() {
		return nil
	}
	i := 0
	for more := r.array(); more; more = r.elem() {
		if i >= len(s) {
			if i < cap(s) {
				s = s[:i+1]
			} else {
				var zero T
				s = append(s, zero)
			}
		}
		elem(r, &s[i])
		i++
	}
	if r.err != nil {
		return s
	}
	s = s[:i]
	if s == nil {
		s = []T{}
	}
	return s
}

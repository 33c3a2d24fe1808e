package scenario

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// Parse decodes and validates a scenario file. The format is JSON plus two
// conveniences: `//` and `#` line comments (outside strings) and one
// trailing comma before a closing `}` or `]`. Keys are the json struct tags
// of the spec types and match exactly (case included); an unknown or
// duplicate key, or a value of the wrong type, is an error naming its path,
// so a typo'd knob fails loudly instead of silently running the default.
// Parse never panics on arbitrary input.
func Parse(data []byte) (*Scenario, error) {
	p := &parser{b: stripComments(data)}
	v, err := p.parseValue(0)
	if err != nil {
		return nil, err
	}
	p.skipWS()
	if p.i != len(p.b) {
		return nil, fmt.Errorf("scenario: trailing data at byte %d", p.i)
	}
	o, ok := v.(*jobj)
	if !ok {
		return nil, fmt.Errorf("scenario: top level must be an object")
	}
	sc := &Scenario{Seed: 1}
	if err := fillStruct(reflect.ValueOf(sc).Elem(), scenarioFields, o); err != nil {
		return nil, err
	}
	for i := range sc.Tenants { // an absent or zero size weight means 1
		for j := range sc.Tenants[i].Mix.Sizes {
			if w := &sc.Tenants[i].Mix.Sizes[j].Weight; *w == 0 {
				*w = 1
			}
		}
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

// stripComments blanks `//` and `#` comments to end of line, outside
// strings, preserving byte offsets so error positions stay meaningful.
func stripComments(data []byte) []byte {
	out := make([]byte, len(data))
	copy(out, data)
	inStr, esc, inCmt := false, false, false
	for i := 0; i < len(out); i++ {
		c := out[i]
		switch {
		case inCmt:
			if c == '\n' {
				inCmt = false
			} else {
				out[i] = ' '
			}
		case inStr:
			if esc {
				esc = false
			} else if c == '\\' {
				esc = true
			} else if c == '"' {
				inStr = false
			}
		case c == '"':
			inStr = true
		case c == '#':
			inCmt = true
			out[i] = ' '
		case c == '/' && i+1 < len(out) && out[i+1] == '/':
			inCmt = true
			out[i] = ' '
		}
	}
	return out
}

// jobj is a parsed JSON object that remembers key order, so unknown-field
// reporting is deterministic without ranging over the map.
type jobj struct {
	keys []string
	vals map[string]any
}

const maxDepth = 64

type parser struct {
	b []byte
	i int
}

func (p *parser) skipWS() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("scenario: byte %d: %s", p.i, fmt.Sprintf(format, args...))
}

func (p *parser) parseValue(depth int) (any, error) {
	if depth > maxDepth {
		return nil, p.errf("nesting deeper than %d levels", maxDepth)
	}
	p.skipWS()
	if p.i >= len(p.b) {
		return nil, p.errf("unexpected end of input")
	}
	switch c := p.b[p.i]; {
	case c == '{':
		return p.parseObject(depth)
	case c == '[':
		return p.parseArray(depth)
	case c == '"':
		return p.parseString()
	case c == 't':
		return p.parseLit("true", true)
	case c == 'f':
		return p.parseLit("false", false)
	case c == 'n':
		return p.parseLit("null", nil)
	case c == '-' || (c >= '0' && c <= '9'):
		return p.parseNumber()
	default:
		return nil, p.errf("unexpected character %q", c)
	}
}

func (p *parser) parseLit(lit string, v any) (any, error) {
	if p.i+len(lit) > len(p.b) || string(p.b[p.i:p.i+len(lit)]) != lit {
		return nil, p.errf("invalid literal")
	}
	p.i += len(lit)
	return v, nil
}

// elem moves to the next element of an object or array, past exactly one
// comma unless it is the first. It reports whether the container closed
// instead; one trailing comma may precede end.
func (p *parser) elem(end byte, first bool) (bool, error) {
	p.skipWS()
	if !first {
		if p.i >= len(p.b) || (p.b[p.i] != ',' && p.b[p.i] != end) {
			return false, p.errf("expected ',' or '%c'", end)
		}
		if p.b[p.i] == ',' {
			p.i++
			p.skipWS()
		}
	}
	if p.i < len(p.b) && p.b[p.i] == end {
		p.i++
		return true, nil
	}
	return false, nil
}

func (p *parser) parseObject(depth int) (any, error) {
	p.i++ // '{'
	o := &jobj{vals: make(map[string]any)}
	for first := true; ; first = false {
		if done, err := p.elem('}', first); done || err != nil {
			return o, err
		}
		if p.i >= len(p.b) {
			return nil, p.errf("unterminated object")
		}
		if p.b[p.i] != '"' {
			return nil, p.errf("object key must be a string")
		}
		k, err := p.parseString()
		if err != nil {
			return nil, err
		}
		p.skipWS()
		if p.i >= len(p.b) || p.b[p.i] != ':' {
			return nil, p.errf("expected ':' after key %q", k)
		}
		p.i++
		v, err := p.parseValue(depth + 1)
		if err != nil {
			return nil, err
		}
		if _, dup := o.vals[k]; dup {
			return nil, p.errf("duplicate key %q", k)
		}
		o.keys = append(o.keys, k)
		o.vals[k] = v
	}
}

func (p *parser) parseArray(depth int) (any, error) {
	p.i++ // '['
	var a []any
	for first := true; ; first = false {
		if done, err := p.elem(']', first); done || err != nil {
			return a, err
		}
		v, err := p.parseValue(depth + 1)
		if err != nil {
			return nil, err
		}
		a = append(a, v)
	}
}

func (p *parser) parseString() (string, error) {
	p.i++ // '"'
	var sb strings.Builder
	for p.i < len(p.b) {
		c := p.b[p.i]
		switch {
		case c == '"':
			p.i++
			return sb.String(), nil
		case c == '\\':
			p.i++
			if p.i >= len(p.b) {
				return "", p.errf("unterminated escape")
			}
			switch e := p.b[p.i]; e {
			case '"', '\\', '/':
				sb.WriteByte(e)
			case 'b':
				sb.WriteByte('\b')
			case 'f':
				sb.WriteByte('\f')
			case 'n':
				sb.WriteByte('\n')
			case 'r':
				sb.WriteByte('\r')
			case 't':
				sb.WriteByte('\t')
			case 'u':
				r, err := p.parseHex4()
				if err != nil {
					return "", err
				}
				if utf16.IsSurrogate(r) {
					if p.i+2 < len(p.b) && p.b[p.i+1] == '\\' && p.b[p.i+2] == 'u' {
						p.i += 2
						r2, err := p.parseHex4()
						if err != nil {
							return "", err
						}
						r = utf16.DecodeRune(r, r2)
					} else {
						r = utf8.RuneError
					}
				}
				sb.WriteRune(r)
			default:
				return "", p.errf("invalid escape \\%c", e)
			}
			p.i++
		case c < 0x20:
			return "", p.errf("raw control character in string")
		default:
			sb.WriteByte(c)
			p.i++
		}
	}
	return "", p.errf("unterminated string")
}

func (p *parser) parseHex4() (rune, error) {
	if p.i+4 >= len(p.b) {
		return 0, p.errf("truncated \\u escape")
	}
	v, err := strconv.ParseUint(string(p.b[p.i+1:p.i+5]), 16, 32)
	if err != nil {
		return 0, p.errf("invalid \\u escape")
	}
	p.i += 4
	return rune(v), nil
}

func (p *parser) parseNumber() (any, error) {
	start := p.i
	for p.i < len(p.b) {
		c := p.b[p.i]
		if (c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E' {
			p.i++
		} else {
			break
		}
	}
	f, err := strconv.ParseFloat(string(p.b[start:p.i]), 64)
	if err != nil || math.IsInf(f, 0) || math.IsNaN(f) {
		p.i = start
		return nil, p.errf("invalid number %q", string(p.b[start:p.i]))
	}
	return f, nil
}

// ---------------------------------------------------------------------------
// Typed fill: jobj → Scenario, driven by the spec types' json struct tags.

// tagField is one field of a spec struct, at the same index.
type tagField struct {
	key      string
	required bool       // `scenario:"required"`: the key must be present
	fields   []tagField // of the struct the field holds, points to or lists
}

// scenarioFields is the field tree of Scenario. It is built at package
// init, not lazily behind a sync.Once (the package may not import sync),
// and only read afterwards.
var scenarioFields = indexFields(reflect.TypeOf(Scenario{}))

func indexFields(t reflect.Type) []tagField {
	fs := make([]tagField, t.NumField())
	for i := range fs {
		f := t.Field(i)
		key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		fs[i] = tagField{key: key, required: f.Tag.Get("scenario") == "required"}
		e := f.Type
		for e.Kind() == reflect.Pointer || e.Kind() == reflect.Slice {
			e = e.Elem()
		}
		if e.Kind() == reflect.Struct {
			fs[i].fields = indexFields(e)
		}
	}
	return fs
}

// fillError is a fill failure. Its path is prepended to as the error
// unwinds, so a successful parse never builds one.
type fillError struct {
	path, msg string
	inside    bool // msg is about the object at path ("path: msg"), not its value ("path msg")
}

func (e *fillError) at(seg string) *fillError {
	if e.path != "" && e.path[0] != '[' {
		seg += "."
	}
	e.path = seg + e.path
	return e
}

func (e *fillError) Error() string {
	switch {
	case e.path == "":
		return "scenario: " + e.msg
	case e.inside:
		return "scenario: " + e.path + ": " + e.msg
	}
	return "scenario: " + e.path + " " + e.msg
}

// fillStruct fills the struct v, whose fields are fs, from o. Every key of
// o must be one of fs; fields are filled, and required ones checked, in
// declaration order.
func fillStruct(v reflect.Value, fs []tagField, o *jobj) *fillError {
	for _, k := range o.keys {
		if !slices.ContainsFunc(fs, func(f tagField) bool { return f.key == k }) {
			return &fillError{msg: fmt.Sprintf("unknown field %q", k), inside: true}
		}
	}
	for i := range fs {
		f := &fs[i]
		j, ok := o.vals[f.key]
		if !ok {
			if f.required {
				return &fillError{msg: f.key + " section is required", inside: true}
			}
			continue
		}
		if err := fill(v.Field(i), f.fields, j); err != nil {
			return err.at(f.key)
		}
	}
	return nil
}

// fill sets v from the parsed JSON value j; fs are the fields of the
// struct v holds, points to or lists. Integer fields take any number that
// is integral and within ±2^53; unsigned ones must also be non-negative.
func fill(v reflect.Value, fs []tagField, j any) *fillError {
	switch v.Kind() {
	case reflect.String:
		s, ok := j.(string)
		if !ok {
			return &fillError{msg: "must be a string"}
		}
		v.SetString(s)
	case reflect.Bool:
		b, ok := j.(bool)
		if !ok {
			return &fillError{msg: "must be a bool"}
		}
		v.SetBool(b)
	case reflect.Float64, reflect.Int, reflect.Int64, reflect.Uint64:
		f, ok := j.(float64)
		if !ok {
			return &fillError{msg: "must be a number"}
		}
		switch k := v.Kind(); {
		case k == reflect.Float64:
			v.SetFloat(f)
		case f != math.Trunc(f) || math.Abs(f) > maxSeed:
			return &fillError{msg: fmt.Sprintf("must be an integer (got %g)", f)}
		case k == reflect.Uint64:
			if f < 0 {
				return &fillError{msg: "must be non-negative"}
			}
			v.SetUint(uint64(f))
		default:
			v.SetInt(int64(f))
		}
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		if err := fill(p.Elem(), fs, j); err != nil {
			return err
		}
		v.Set(p)
	case reflect.Slice:
		a, ok := j.([]any)
		if !ok {
			return &fillError{msg: "must be an array"}
		}
		if len(a) == 0 { // an empty list decodes like an absent one: nil
			return nil
		}
		s := reflect.MakeSlice(v.Type(), len(a), len(a))
		for i, e := range a {
			if err := fill(s.Index(i), fs, e); err != nil {
				return err.at("[" + strconv.Itoa(i) + "]")
			}
		}
		v.Set(s)
	case reflect.Struct:
		o, ok := j.(*jobj)
		if !ok {
			return &fillError{msg: "must be an object"}
		}
		return fillStruct(v, fs, o)
	default:
		panic("scenario: no fill for field kind " + v.Kind().String())
	}
	return nil
}

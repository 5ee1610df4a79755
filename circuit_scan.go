package heax

// The circuit decoder's JSON reader: a scanner for the one document shape
// circuitJSON describes, with encoding/json's rules for it. A document is
// accepted exactly when json.Unmarshal into circuitJSON accepts it, and
// decodes to the same value; TestCircuitScanMatchesEncodingJSON and
// FuzzCircuitScan hold the two to each other. It exists for speed: a
// compile request is mostly payload words in base64, which encoding/json
// reads twice (a validity scan, then the decode) a byte at a time through
// its state machine, where this scanner finds the end of a string with
// one loop and hands the text to encoding/base64.
//
// The rules kept: one value, surrounded only by JSON whitespace; object
// keys matched to fields exactly or case-insensitively (bytes.EqualFold),
// unknown keys skipped; null leaves a number, string or bool as it was
// and clears a slice or pointer; an array decodes into the slice it
// finds, element by element, and leaves it with the array's length; a
// value of the wrong type, a number out of its field's range or a
// payload that is not base64 is an error, after which the rest of the
// document is still decoded (so the version can be judged first); any
// syntax error is an error and decodes nothing. Strings are unquoted as
// encoding/json unquotes them: invalid UTF-8 and unpaired surrogates
// become U+FFFD.

import (
	"bytes"
	"encoding/base64"
	"errors"
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// maxJSONDepth bounds the nesting of arrays and objects, as encoding/json
// does, so a hostile document cannot grow the stack without limit.
const maxJSONDepth = 10000

// errJSONSyntax marks a document that is not JSON, errJSONType a value
// that does not fit its field.
var (
	errJSONSyntax = errors.New("invalid JSON")
	errJSONType   = errors.New("JSON value does not fit its field")
)

// decodeCircuitJSON decodes data into enc. A syntax error leaves enc
// zero; a type error leaves whatever the rest of the document decoded to.
func decodeCircuitJSON(data []byte, enc *circuitJSON) error {
	s := jsonScanner{data: data}
	s.ws()
	s.circuit(enc)
	s.ws()
	if s.syntax == nil && s.pos < len(s.data) {
		s.fail("data after the top-level value")
	}
	if s.syntax != nil {
		*enc = circuitJSON{}
		return s.syntax
	}
	return s.typed
}

type jsonScanner struct {
	data   []byte
	pos    int
	depth  int
	syntax error  // the syntax error that stopped the scan
	typed  error  // the first value that did not fit its field
	key    []byte // the key of the value being decoded, for errors
}

func (s *jsonScanner) fail(what string) {
	if s.syntax == nil {
		s.syntax = fmt.Errorf("%w: %s at offset %d", errJSONSyntax, what, s.pos)
	}
	s.pos = len(s.data)
}

func (s *jsonScanner) mismatch(what string) {
	if s.typed == nil {
		s.typed = fmt.Errorf("%w: %s for key %q at offset %d", errJSONType, what, s.key, s.pos)
	}
}

func (s *jsonScanner) ws() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// peek returns the next byte, or 0 at the end.
func (s *jsonScanner) peek() byte {
	if s.pos < len(s.data) {
		return s.data[s.pos]
	}
	return 0
}

// circuit decodes the top-level value.
func (s *jsonScanner) circuit(enc *circuitJSON) {
	s.object("circuit", func(key []byte) {
		switch {
		case field(key, "version"):
			s.intInto(&enc.Version)
		case field(key, "nodes"):
			arrayInto(s, &enc.Nodes, "nodes", s.node)
		case field(key, "outputs"):
			arrayInto(s, &enc.Outputs, "outputs", s.output)
		default:
			s.skip()
		}
	})
}

func (s *jsonScanner) node(n *nodeJSON) {
	s.object("node", func(key []byte) {
		switch {
		case field(key, "op"):
			s.stringInto(&n.Op)
		case field(key, "args"):
			arrayInto(s, &n.Args, "args", s.intInto)
		case field(key, "values"):
			s.bytesInto(&n.Values)
		case field(key, "values_im"):
			s.bytesInto(&n.ValuesIm)
		case field(key, "scalar"):
			s.floatPtrInto(&n.Scalar)
		case field(key, "periodic"):
			s.boolInto(&n.Periodic)
		case field(key, "name"):
			s.stringInto(&n.Name)
		case field(key, "step"):
			s.intInto(&n.Step)
		case field(key, "n2"):
			s.intInto(&n.N2)
		case field(key, "bound"):
			s.floatPtrInto(&n.Bound)
		default:
			s.skip()
		}
	})
}

func (s *jsonScanner) output(o *outputJSON) {
	s.object("output", func(key []byte) {
		switch {
		case field(key, "name"):
			s.stringInto(&o.Name)
		case field(key, "node"):
			s.intInto(&o.Node)
		default:
			s.skip()
		}
	})
}

// field reports whether an object key names a field as encoding/json
// matches them, exactly or as bytes.EqualFold would: for the field names
// here, all ASCII, that folds the case of ASCII letters and takes ſ
// (U+017F) for s and the Kelvin sign (U+212A) for k, the only other runes
// whose case folds reach an ASCII letter.
func field(key []byte, name string) bool {
	i := 0
	for _, r := range string(key) {
		if i == len(name) {
			return false
		}
		c := rune(name[i]) | 0x20
		i++
		switch {
		case r == rune(name[i-1]):
		case 'a' <= c && c <= 'z' && (r|0x20 == c && r < utf8.RuneSelf || r == '\u017f' && c == 's' || r == '\u212a' && c == 'k'):
		default:
			return false
		}
	}
	return i == len(name)
}

// object scans an object (or null, which decodes nothing), calling
// member with each key once the scanner stands at the key's value;
// member must consume the value. Any other value is a type error.
func (s *jsonScanner) object(what string, member func(key []byte)) {
	switch s.peek() {
	case 'n':
		s.literal("null")
		return
	case '{':
	default:
		s.mismatch("cannot decode a non-object into the " + what)
		s.skip()
		return
	}
	if !s.enter() {
		return
	}
	defer func(outer []byte) { s.key = outer }(s.key)
	s.pos++
	s.ws()
	if s.peek() == '}' {
		s.pos++
		s.depth--
		return
	}
	for s.syntax == nil {
		if s.peek() != '"' {
			s.fail("object key is not a string")
			return
		}
		key := s.str()
		s.ws()
		if s.peek() != ':' {
			s.fail("missing ':' after object key")
			return
		}
		s.pos++
		s.ws()
		s.key = key
		member(key)
		s.ws()
		switch s.peek() {
		case ',':
			s.pos++
			s.ws()
		case '}':
			s.pos++
			s.depth--
			return
		default:
			s.fail("missing ',' or '}' in object")
			return
		}
	}
}

// arrayInto decodes an array into *dst as encoding/json decodes into a
// slice: element i into the element already at i, the slice grown one
// element at a time through append (so a longer decode's leftovers past
// the length show again, as reflect.Value.SetLen exposes them), and left
// with the array's length; an empty array leaves a new empty slice and
// null a nil one. elem decodes one element at the scanner.
func arrayInto[T any](s *jsonScanner, dst *[]T, what string, elem func(*T)) {
	switch s.peek() {
	case 'n':
		s.literal("null")
		*dst = nil
		return
	case '[':
	default:
		s.mismatch("cannot decode a non-array into " + what)
		s.skip()
		return
	}
	if !s.enter() {
		return
	}
	s.pos++
	s.ws()
	xs, i := *dst, 0
	if s.peek() != ']' {
		for ; s.syntax == nil; i++ {
			if i >= len(xs) {
				if i < cap(xs) {
					xs = xs[:i+1]
				} else {
					var zero T
					xs = append(xs, zero)
				}
			}
			elem(&xs[i])
			s.ws()
			if s.peek() != ',' {
				break
			}
			s.pos++
			s.ws()
		}
		if s.peek() != ']' {
			s.fail("missing ',' or ']' in array")
			return
		}
		i++
	}
	s.pos++
	s.depth--
	if i == 0 {
		xs = make([]T, 0)
	}
	*dst = xs[:i]
}

func (s *jsonScanner) enter() bool {
	s.depth++
	if s.depth > maxJSONDepth {
		s.fail("nesting deeper than 10000")
		return false
	}
	return true
}

// literal consumes the keyword word.
func (s *jsonScanner) literal(word string) {
	if !bytes.HasPrefix(s.data[s.pos:], []byte(word)) {
		s.fail("invalid literal")
		return
	}
	s.pos += len(word)
}

// skip consumes one value of any kind.
func (s *jsonScanner) skip() {
	switch c := s.peek(); {
	case c == '{':
		s.object("", func([]byte) { s.skip() })
	case c == '[':
		var elems []struct{}
		arrayInto(s, &elems, "", func(*struct{}) { s.skip() })
	case c == '"':
		s.str()
	case c == 't':
		s.literal("true")
	case c == 'f':
		s.literal("false")
	case c == 'n':
		s.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		s.number()
	default:
		s.fail("invalid value")
	}
}

// number consumes a number with JSON's grammar and returns its text.
func (s *jsonScanner) number() []byte {
	start := s.pos
	d := s.data
	if s.peek() == '-' {
		s.pos++
	}
	digits := func() int {
		n := 0
		for s.pos < len(d) && '0' <= d[s.pos] && d[s.pos] <= '9' {
			s.pos++
			n++
		}
		return n
	}
	switch {
	case s.peek() == '0':
		s.pos++
	case digits() == 0:
		s.fail("invalid number")
		return nil
	}
	if s.peek() == '.' {
		s.pos++
		if digits() == 0 {
			s.fail("invalid number")
			return nil
		}
	}
	if c := s.peek(); c == 'e' || c == 'E' {
		s.pos++
		if c := s.peek(); c == '+' || c == '-' {
			s.pos++
		}
		if digits() == 0 {
			s.fail("invalid number")
			return nil
		}
	}
	return d[start:s.pos]
}

// str consumes a string and returns its unquoted bytes: a sub-slice of
// the document when it holds no escape and no byte above ASCII, and
// encoding/json's unquoting otherwise.
func (s *jsonScanner) str() []byte {
	d := s.data
	s.pos++ // the opening quote
	start := s.pos
	plain := true
	for s.pos < len(d) {
		i := s.pos
		for i < len(d) && plainByte[d[i]] {
			i++
		}
		s.pos = i
		if s.pos == len(d) {
			break
		}
		switch c := d[s.pos]; {
		case c == '"':
			raw := d[start:s.pos]
			s.pos++
			if plain {
				return raw
			}
			return unquoteJSON(raw)
		case c == '\\':
			plain = false
			s.pos++
			switch s.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				s.pos++
			case 'u':
				s.pos++
				for k := 0; k < 4; k++ {
					if !isHex(s.peek()) {
						s.fail("invalid \\u escape")
						return nil
					}
					s.pos++
				}
			default:
				s.fail("invalid escape")
				return nil
			}
		case c < ' ':
			s.fail("control character in string")
			return nil
		default:
			if c >= utf8.RuneSelf {
				plain = false
			}
			s.pos++
		}
	}
	s.fail("unterminated string")
	return nil
}

// plainByte marks the bytes a string holds as they are: ASCII from the
// space up, but for the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

func isHex(c byte) bool { return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F' }

// unquoteJSON decodes the escapes of a scanned string body, coercing it
// to well-formed UTF-8 as encoding/json does.
func unquoteJSON(raw []byte) []byte {
	out := make([]byte, 0, len(raw))
	for r := 0; r < len(raw); {
		c := raw[r]
		switch {
		case c == '\\':
			switch e := raw[r+1]; e {
			case 'u':
				rr := hex4(raw[r+2 : r+6])
				r += 6
				if utf16.IsSurrogate(rr) {
					if r+6 <= len(raw) && raw[r] == '\\' && raw[r+1] == 'u' {
						if dec := utf16.DecodeRune(rr, hex4(raw[r+2:r+6])); dec != unicode.ReplacementChar {
							out = utf8.AppendRune(out, dec)
							r += 6
							continue
						}
					}
					rr = unicode.ReplacementChar
				}
				out = utf8.AppendRune(out, rr)
				continue
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			default: // '"', '\\', '/'
				out = append(out, e)
			}
			r += 2
		case c < utf8.RuneSelf:
			out = append(out, c)
			r++
		default:
			rr, size := utf8.DecodeRune(raw[r:])
			out = utf8.AppendRune(out, rr)
			r += size
		}
	}
	return out
}

func hex4(h []byte) rune {
	var r rune
	for _, c := range h {
		switch {
		case c <= '9':
			c -= '0'
		case c <= 'F':
			c -= 'A' - 10
		default:
			c -= 'a' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

// The field decoders: null leaves a number, string or bool unchanged and
// clears a slice or pointer; a value of another type is a type error.

func (s *jsonScanner) intInto(dst *int) {
	switch c := s.peek(); {
	case c == 'n':
		s.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		lit := s.number()
		if s.syntax != nil {
			return
		}
		if v, err := strconv.ParseInt(string(lit), 10, strconv.IntSize); err != nil {
			s.mismatch("cannot decode number " + string(lit) + " into an int")
		} else {
			*dst = int(v)
		}
	default:
		s.mismatch("cannot decode a non-number into an int")
		s.skip()
	}
}

func (s *jsonScanner) floatPtrInto(dst **float64) {
	switch c := s.peek(); {
	case c == 'n':
		s.literal("null")
		*dst = nil
	case c == '-' || '0' <= c && c <= '9':
		lit := s.number()
		if s.syntax != nil {
			return
		}
		if v, err := strconv.ParseFloat(string(lit), 64); err != nil {
			s.mismatch("cannot decode number " + string(lit) + " into a float64")
		} else {
			*dst = &v
		}
	default:
		s.mismatch("cannot decode a non-number into a float64")
		s.skip()
	}
}

func (s *jsonScanner) stringInto(dst *string) {
	switch s.peek() {
	case 'n':
		s.literal("null")
	case '"':
		if v := s.str(); s.syntax == nil {
			*dst = string(v)
		}
	default:
		s.mismatch("cannot decode a non-string into a string")
		s.skip()
	}
}

func (s *jsonScanner) boolInto(dst *bool) {
	switch s.peek() {
	case 'n':
		s.literal("null")
	case 't':
		s.literal("true")
		*dst = true
	case 'f':
		s.literal("false")
		*dst = false
	default:
		s.mismatch("cannot decode a non-bool into a bool")
		s.skip()
	}
}

// bytesInto decodes a []byte: base64 text, or an array of byte values.
func (s *jsonScanner) bytesInto(dst *[]byte) {
	if s.peek() != '"' {
		arrayInto(s, dst, "a payload", s.byteInto)
		return
	}
	// The usual payload, taken whole: text up to the next quote that
	// base64 accepts and that holds no \r or \n (which base64 skips and
	// JSON refuses) has no escape, control byte or byte above ASCII, so it
	// is the string's value as it stands. Anything else is read below.
	if end := bytes.IndexByte(s.data[s.pos+1:], '"'); end >= 0 {
		text := s.data[s.pos+1 : s.pos+1+end]
		b := make([]byte, base64.StdEncoding.DecodedLen(len(text)))
		if n, err := base64.StdEncoding.Decode(b, text); err == nil && bytes.IndexByte(text, '\n') < 0 && bytes.IndexByte(text, '\r') < 0 {
			s.pos += end + 2
			*dst = b[:n]
			return
		}
	}
	text := s.str()
	if s.syntax != nil {
		return
	}
	b := make([]byte, base64.StdEncoding.DecodedLen(len(text)))
	n, err := base64.StdEncoding.Decode(b, text)
	if err != nil {
		s.mismatch("payload is not base64: " + err.Error())
		return
	}
	*dst = b[:n]
}

func (s *jsonScanner) byteInto(dst *byte) {
	switch c := s.peek(); {
	case c == 'n':
		s.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		lit := s.number()
		if s.syntax != nil {
			return
		}
		if v, err := strconv.ParseUint(string(lit), 10, 8); err != nil {
			s.mismatch("cannot decode number " + string(lit) + " into a byte")
		} else {
			*dst = byte(v)
		}
	default:
		s.mismatch("cannot decode a non-number into a byte")
		s.skip()
	}
}

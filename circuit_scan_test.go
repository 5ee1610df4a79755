package heax

// The circuit scanner against encoding/json: for every document, both
// accept or both refuse; a syntax error is one for both; a document both
// accept decodes to the same circuitJSON; and after a type error both
// have read the same version.

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

func checkScanMatches(t *testing.T, data []byte) {
	t.Helper()
	var want, got circuitJSON
	jerr := json.Unmarshal(data, &want)
	serr := decodeCircuitJSON(data, &got)
	if (jerr == nil) != (serr == nil) {
		t.Fatalf("encoding/json error %v, scanner error %v on %q", jerr, serr, data)
	}
	var syntax *json.SyntaxError
	if errors.As(jerr, &syntax) != errors.Is(serr, errJSONSyntax) {
		t.Fatalf("encoding/json error %v, scanner error %v: one is a syntax error, the other not, on %q", jerr, serr, data)
	}
	switch {
	case jerr == nil && !reflect.DeepEqual(want, got):
		t.Fatalf("decodes differ on %q:\nencoding/json %#v\nscanner       %#v", data, want, got)
	case jerr != nil && syntax == nil && want.Version != got.Version:
		t.Fatalf("after a type error encoding/json read version %d, the scanner %d, on %q", want.Version, got.Version, data)
	}
}

// scanCases are documents at the edges of encoding/json's rules for this
// shape.
var scanCases = []string{
	exampleCircuitJSON,
	` { "version" : 2 , "nodes" : [ ] , "outputs" : [ ] } `,
	"\t\n\r{\"version\":2}\n",
	`{"VERSION":2,"Nodes":[{"OP":"Input","nAmE":"x"}],"outputs":null}`,
	`{"version":2,"nodes":[{"op":"MulPlain","args":[0],"valueſ":"AAAAAAAA8D8=","ſcalar":1}]}`,
	`{"ver\u0073ion":2,"nodes":[{"op":"Inp\u0075t","name":"\u00e9\ud83d\ude00\ud800x\udc00\\\/\"\b\f\n\r\t"}]}`,
	"{\"version\":2,\"nodes\":[{\"op\":\"Input\",\"name\":\"x\xff\xc3\x28\xe2\x82\"}]}",
	`{"version":2,"unknown":{"a":[1,{"b":null},true,false,"s",-1.5e-3]},"nodes":[{"op":"Input","extra":[[]]}]}`,
	`{"version":2,"nodes":[{"op":"A","name":"x","args":[1,2,3]}],"nodes":[{"op":"B","args":[null,7]}]}`,
	`{"version":2,"nodes":[{"args":[1,2,3]},{"args":[4]}],"nodes":[{"args":[null]},{"args":[null,null]}]}`,
	`{"version":2,"nodes":[{"op":"A"},{"op":"B"},{"op":"C"}],"nodes":[{}],"nodes":[null,{"name":"y"}]}`,
	`{"version":2,"nodes":[{"op":"A","args":[]},{"op":"B","args":null,"values":[],"values_im":null}]}`,
	`{"version":2,"nodes":[{"op":"MulPlain","values":[0,0,0,0,0,0,240,63],"values_im":[1,null,255]}]}`,
	`{"version":2,"nodes":[{"op":"MulPlain","values":"AAAA\nAAAA8D8=","values_im":"AAAAAAAA8D9="}]}`,
	`{"version":2,"nodes":[{"op":"MulPlain","values":"AAAA*AAA8D8="}]}`,
	`{"version":2,"nodes":[{"op":"MulPlain","values":"AAAAAAAA8D8"}]}`,
	`{"version":2,"nodes":[{"op":"MulPlain","values":[256]}]}`,
	`{"version":2,"nodes":[{"op":"MulPlain","values":[-1]}]}`,
	`{"version":2,"nodes":[{"op":"MulPlain","values":["A"]}]}`,
	`{"version":2,"nodes":[{"op":"MulPlain","values":{"a":1}}]}`,
	`{"version":2,"nodes":[{"scalar":-0,"bound":1e-400,"step":-0,"n2":9223372036854775807}]}`,
	`{"version":2,"nodes":[{"scalar":1e999}]}`,
	`{"version":2,"nodes":[{"step":9223372036854775808}]}`,
	`{"version":2,"nodes":[{"step":1.0}]}`,
	`{"version":2,"nodes":[{"step":1e2}]}`,
	`{"version":2,"nodes":[{"step":"1"}]}`,
	`{"version":2,"nodes":[{"periodic":1,"name":7,"op":true}]}`,
	`{"version":2,"nodes":[{"scalar":2,"bound":null,"periodic":null,"name":null,"step":null}]}`,
	`{"version":1,"nodes":[{"op":"MulPlain","values":[0.5]}]}`,
	`{"nodes":[{"op":"MulPlain","values":[0.5]}],"version":1}`,
	`{"version":"2"}`,
	`{"version":2,"nodes":{}}`,
	`{"version":2,"nodes":[1,"a",[],true]}`,
	`{"version":2,"outputs":[{"name":"y","node":0,"node":1}]}`,
	`null`, ` null `, `[]`, `[1,2]`, `2`, `"x"`, `true`,
	``, ` `, `{`, `}`, `{"version":2,}`, `{"version":2 "nodes":[]}`, `{"version"2}`, `{version:2}`,
	`{"version":02}`, `{"version":-}`, `{"version":1.}`, `{"version":.5}`, `{"version":+1}`, `{"version":1e}`,
	`{"version":2}x`, `{"version":2}{}`, `nullx`, `nul`, `{"a":tru}`, `{"a":[1,]}`, `{"a":[,1]}`,
	`{"a":"\x"}`, `{"a":"\u12"}`, `{"a":"\u12g4"}`, `{"a":"` + "\x01" + `"}`, `{"a":"unterminated`,
	`{"a":'x'}`, `{"a":"\'"}`, "\xef\xbb\xbf{}",
	strings.Repeat("[", 10000) + strings.Repeat("]", 10000),
	strings.Repeat("[", 10001) + strings.Repeat("]", 10001),
	`{"version":2,"x":` + strings.Repeat(`{"a":`, 9999) + `1` + strings.Repeat(`}`, 9999) + `}`,
	`{"version":2,"x":` + strings.Repeat(`{"a":`, 10000) + `1` + strings.Repeat(`}`, 10000) + `}`,
}

// TestCircuitScanMatchesEncodingJSON runs the edge cases and the
// FuzzCircuitJSON corpus through the scanner and encoding/json.
func TestCircuitScanMatchesEncodingJSON(t *testing.T) {
	docs := append([]string(nil), scanCases...)
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzCircuitJSON", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no FuzzCircuitJSON corpus (%v)", err)
	}
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		lit := strings.TrimSpace(strings.TrimPrefix(string(raw), "go test fuzz v1"))
		doc, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		docs = append(docs, doc)
	}
	for _, doc := range docs {
		checkScanMatches(t, []byte(doc))
	}
}

// TestScanFieldFold: field matches a key to a name exactly when
// bytes.EqualFold does, for every rune against every byte a field name
// here is made of, and for whole keys.
func TestScanFieldFold(t *testing.T) {
	const alphabet = "abcdefghijklmnopqrstuvwxyz_0123456789"
	for r := rune(0); r <= unicode.MaxRune; r++ {
		if !utf8.ValidRune(r) {
			continue
		}
		key := []byte(string(r))
		for i := range alphabet {
			name := alphabet[i : i+1]
			if got, want := field(key, name), bytes.EqualFold(key, []byte(name)); got != want {
				t.Fatalf("field(%q, %q) = %v, bytes.EqualFold says %v", key, name, got, want)
			}
		}
	}
	for _, c := range []struct{ key, name string }{
		{"values", "values"}, {"VALUES", "values"}, {"valueſ", "values"}, {"value", "values"},
		{"values_", "values"}, {"values_im", "values"}, {"Values_IM", "values_im"}, {"n2", "n2"},
		{"N2", "n2"}, {"n3", "n2"}, {"", "op"}, {"op", ""}, {"\u006fp", "op"},
	} {
		if got, want := field([]byte(c.key), c.name), bytes.EqualFold([]byte(c.key), []byte(c.name)); got != want {
			t.Fatalf("field(%q, %q) = %v, bytes.EqualFold says %v", c.key, c.name, got, want)
		}
	}
}

// FuzzCircuitScan: the scanner and encoding/json agree on every input.
func FuzzCircuitScan(f *testing.F) {
	for _, doc := range scanCases {
		if len(doc) < 4096 {
			f.Add([]byte(doc))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkScanMatches(t, data) })
}

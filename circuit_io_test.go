package heax

// Round-trip and validation tests for the circuit DAG encoding: an
// exported circuit must import to one that compiles to a bit-identical
// plan, and malformed descriptions must fail with typed errors, never
// panic.

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
)

func exampleCircuit() *Circuit {
	c := NewCircuit()
	x := c.Input("x")
	w := c.Input("w")
	sq := c.MulRelin(x, x)
	rot := c.Add(c.Rotate(x, 1), c.Rotate(x, 2))
	mix := c.Add(c.MulPlain(w, []float64{0.5, -1, 2}), c.MulConst(rot, 0.25))
	c.Output("y", c.AddConst(c.Add(sq, mix), 1))
	c.Output("z", c.InnerSum(rot, 2))
	return c
}

func TestCircuitJSONRoundTrip(t *testing.T) {
	k := newOracleKit(t, SetA, []int{1, 2}, false)
	orig := exampleCircuit()
	blob, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var imported Circuit
	if err := json.Unmarshal(blob, &imported); err != nil {
		t.Fatal(err)
	}

	p1, err := orig.Compile(k.params, k.evk)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := imported.Compile(k.params, k.evk)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Describe() != p2.Describe() {
		t.Fatalf("imported circuit compiles differently:\n--- original\n%s--- imported\n%s", p1.Describe(), p2.Describe())
	}

	in := map[string]*Ciphertext{
		"x": k.encrypt(t, []float64{0.5, -0.25, 1}),
		"w": k.encrypt(t, []float64{1, 2, 3}),
	}
	o1, err := p1.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := p2.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"y", "z"} {
		if !ctBitEqual(o1[name], o2[name]) {
			t.Fatalf("output %q differs between original and imported plan", name)
		}
	}

	// The round trip is a fixed point: export(import(export(c))) ==
	// export(c), which the serving plan cache keys on.
	blob2, err := json.Marshal(&imported)
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != string(blob2) {
		t.Fatal("re-export is not byte-identical")
	}
}

func TestCircuitJSONRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		blob string
		want string
	}{
		{"bad version", `{"version":7,"nodes":[],"outputs":[]}`, "unsupported version"},
		{"version 1", `{"version":1,"nodes":[{"op":"Input","name":"x"},{"op":"MulPlain","args":[0],"values":[0.5]}],"outputs":[]}`, "unsupported version 1"},
		{"unknown op", `{"version":2,"nodes":[{"op":"Bootstrap"}],"outputs":[]}`, "unknown op"},
		{"forward reference", `{"version":2,"nodes":[{"op":"Rotate","args":[1],"step":1},{"op":"Input","name":"x"}],"outputs":[]}`, "earlier nodes"},
		{"self reference", `{"version":2,"nodes":[{"op":"Input","name":"x"},{"op":"Add","args":[1,0]}],"outputs":[]}`, "earlier nodes"},
		{"wrong arity", `{"version":2,"nodes":[{"op":"Input","name":"x"},{"op":"Add","args":[0]}],"outputs":[]}`, "operands"},
		{"empty input name", `{"version":2,"nodes":[{"op":"Input"}],"outputs":[]}`, "empty name"},
		{"duplicate input", `{"version":2,"nodes":[{"op":"Input","name":"x"},{"op":"Input","name":"x"}],"outputs":[]}`, "duplicate input"},
		{"missing payload", `{"version":2,"nodes":[{"op":"Input","name":"x"},{"op":"MulPlain","args":[0]}],"outputs":[]}`, "no plaintext payload"},
		{"double payload", `{"version":2,"nodes":[{"op":"Input","name":"x"},{"op":"MulPlain","args":[0],"values":"AAAAAAAA8D8=","scalar":2}],"outputs":[]}`, "both a scalar and a vector"},
		{"periodic scalar", `{"version":2,"nodes":[{"op":"Input","name":"x"},{"op":"MulPlain","args":[0],"scalar":2,"periodic":true}],"outputs":[]}`, "cannot be periodic"},
		{"payload not whole words", `{"version":2,"nodes":[{"op":"Input","name":"x"},{"op":"MulPlain","args":[0],"values":"AAAAAAAAAA=="}],"outputs":[]}`, "payload of 7 bytes"},
		{"empty payload", `{"version":2,"nodes":[{"op":"Input","name":"x"},{"op":"AddPlain","args":[0],"values":""}],"outputs":[]}`, "payload of 0 bytes"},
		{"payload not base64", `{"version":2,"nodes":[{"op":"Input","name":"x"},{"op":"MulPlain","args":[0],"values":"AAAA*AAA8D8="}],"outputs":[]}`, "base64"},
		{"payload as decimal text", `{"version":2,"nodes":[{"op":"Input","name":"x"},{"op":"MulPlain","args":[0],"values":[0.5,-1]}],"outputs":[]}`, "cannot decode number 0.5 into a byte"},
		{"imaginary length", `{"version":2,"nodes":[{"op":"Input","name":"x"},{"op":"MulPlain","args":[0],"values":"AAAAAAAA8D8=","values_im":"AAAAAAAA8D8AAAAAAAAAQA=="}],"outputs":[]}`, "16 bytes of imaginary parts for 8 bytes"},
		{"NaN word", `{"version":2,"nodes":[{"op":"Input","name":"x"},{"op":"MulPlain","args":[0],"values":"AAAAAAAA8D8AAAAAAAD4fw=="}],"outputs":[]}`, "value 1 is (NaN+0i)"},
		{"Inf word", `{"version":2,"nodes":[{"op":"Input","name":"x"},{"op":"AddPlain","args":[0],"values":"AAAAAAAA8H8="}],"outputs":[]}`, "value 0 is (+Inf+0i)"},
		{"NaN imaginary word", `{"version":2,"nodes":[{"op":"Input","name":"x"},{"op":"MulPlain","args":[0],"values":"AAAAAAAA8D8=","values_im":"AAAAAAAA+H8="}],"outputs":[]}`, "value 0 is (1+NaNi)"},
		{"bad width", `{"version":2,"nodes":[{"op":"Input","name":"x"},{"op":"InnerSum","args":[0],"n2":3}],"outputs":[]}`, "power of two"},
		{"stray name", `{"version":2,"nodes":[{"op":"Input","name":"x"},{"op":"Rotate","args":[0],"step":1,"name":"x"}],"outputs":[]}`, "must not carry"},
		{"bad output node", `{"version":2,"nodes":[{"op":"Input","name":"x"}],"outputs":[{"name":"y","node":3}]}`, "references node"},
		{"duplicate output", `{"version":2,"nodes":[{"op":"Input","name":"x"}],"outputs":[{"name":"y","node":0},{"name":"y","node":0}]}`, "duplicate output"},
		{"empty output name", `{"version":2,"nodes":[{"op":"Input","name":"x"}],"outputs":[{"name":"","node":0}]}`, "empty name"},
		{"zero bound", `{"version":2,"nodes":[{"op":"Input","name":"x","bound":0}],"outputs":[]}`, "bound 0"},
		{"negative bound", `{"version":2,"nodes":[{"op":"Input","name":"x","bound":-1}],"outputs":[]}`, "bound -1"},
		{"infinite bound", `{"version":2,"nodes":[{"op":"Input","name":"x","bound":1e999}],"outputs":[]}`, "bound"},
	}
	for _, tc := range cases {
		var c Circuit
		err := json.Unmarshal([]byte(tc.blob), &c)
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: error %q is not ErrCorrupt", tc.name, err)
		}
	}
}

// exampleCircuitJSON is exampleCircuit's encoding: an unbounded circuit
// encodes to exactly these bytes, so heax-serve keeps its PlanID. It was
// re-taken once, for encoding version 2, whose payload [0.5, -1, 2] is
// the base64 of its little-endian float64 words; nothing else moved.
const exampleCircuitJSON = `{"version":2,"nodes":[{"op":"Input","name":"x"},{"op":"Input","name":"w"},{"op":"MulRelin","args":[0,0]},{"op":"Rotate","args":[0],"step":1},{"op":"Rotate","args":[0],"step":2},{"op":"Add","args":[3,4]},{"op":"MulPlain","args":[1],"values":"AAAAAAAA4D8AAAAAAADwvwAAAAAAAABA"},{"op":"MulPlain","args":[5],"scalar":0.25},{"op":"Add","args":[6,7]},{"op":"Add","args":[2,8]},{"op":"AddPlain","args":[9],"scalar":1},{"op":"InnerSum","args":[5],"n2":2}],"outputs":[{"name":"y","node":10},{"name":"z","node":11}]}`

// TestCircuitJSONBound: a declared bound survives the round trip, so the
// importing side places the plan exactly as the builder's side does, and
// an unbounded circuit re-exports to the bytes it always did.
func TestCircuitJSONBound(t *testing.T) {
	blob, err := json.Marshal(exampleCircuit())
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != exampleCircuitJSON {
		t.Fatalf("unbounded circuit encodes to\n%s\nwant\n%s", blob, exampleCircuitJSON)
	}

	k := newOracleKit(t, SetB, []int{1}, false)
	c := NewCircuit()
	x := c.Input("x")
	c.Output("y", c.Bound(c.Add(c.MulRelin(x, x), c.Rotate(x, 1)), 0.75))
	blob, err = json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"bound":0.75`) {
		t.Fatalf("bounded circuit encodes without its bound: %s", blob)
	}
	var imported Circuit
	if err := json.Unmarshal(blob, &imported); err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(&imported)
	if err != nil || string(again) != string(blob) {
		t.Fatalf("re-export %s (%v), want %s", again, err, blob)
	}
	p1, err := c.Compile(k.params, k.evk)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := imported.Compile(k.params, k.evk)
	if err != nil {
		t.Fatal(err)
	}
	if p1.InputLevel() == k.params.MaxLevel() || p1.InputLevel() != p2.InputLevel() || p1.Describe() != p2.Describe() {
		t.Fatalf("input levels %d and %d (top %d); plans:\n%s\n%s", p1.InputLevel(), p2.InputLevel(), k.params.MaxLevel(), p1.Describe(), p2.Describe())
	}
}

// FuzzCircuitJSON: decoding never panics; whatever decodes re-encodes to
// a fixed point; and a bound that is not a positive finite magnitude, on
// any node of a circuit that decodes, fails with ErrCorrupt.
func FuzzCircuitJSON(f *testing.F) {
	blob, err := json.Marshal(exampleCircuit())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add([]byte(`{"version":2,"nodes":[{"op":"Input","name":"x","bound":2}],"outputs":[{"name":"y","node":0}]}`))
	f.Add([]byte(`{"version":2,"nodes":[{"op":"Input","name":"x"},{"op":"MulPlainPeriodic"}],"outputs":[]}`))
	f.Add([]byte(`{"version":2,"nodes":[{"op":"Input","name":"x","bound":-0}],"outputs":[]}`))
	f.Add([]byte(`{"version":2,"nodes":[{"op":"Input","name":"x"},{"op":"MulPlain","args":[0],"values":"AAAAAAAA8D8AAAAAAAAAQA==","values_im":"AAAAAAAA0D8AAAAAAADwvw==","periodic":true}],"outputs":[{"name":"y","node":1}]}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var c Circuit
		if err := json.Unmarshal(data, &c); err != nil {
			return
		}
		first, err := json.Marshal(&c)
		if err != nil {
			t.Fatalf("decoded circuit does not encode: %v", err)
		}
		var again Circuit
		if err := json.Unmarshal(first, &again); err != nil {
			t.Fatalf("re-encoded circuit does not decode: %v\n%s", err, first)
		}
		second, err := json.Marshal(&again)
		if err != nil || string(second) != string(first) {
			t.Fatalf("re-encoding is not a fixed point (%v):\n%s\n%s", err, first, second)
		}
		var enc circuitJSON
		if err := json.Unmarshal(first, &enc); err != nil {
			t.Fatal(err)
		}
		for i := range enc.Nodes {
			for _, bad := range []string{"0", "-0", "-1", "-1e-300", "1e999"} {
				nodes := make([]json.RawMessage, len(enc.Nodes))
				for j, nj := range enc.Nodes {
					if nodes[j], err = json.Marshal(nj); err != nil {
						t.Fatal(err)
					}
				}
				nodes[i] = append(append(nodes[i][:len(nodes[i])-1:len(nodes[i])-1], `,"bound":`+bad...), '}')
				doc, err := json.Marshal(map[string]any{"version": enc.Version, "nodes": nodes, "outputs": enc.Outputs})
				if err != nil {
					t.Fatal(err)
				}
				var bc Circuit
				if err := json.Unmarshal(doc, &bc); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("node %d with bound %s: %v, want ErrCorrupt\n%s", i, bad, err, doc)
				}
			}
		}
	})
}

// TestCircuitJSONFailedBuilderRefuses: a circuit whose builder chain
// failed exports that error instead of a half-built graph.
func TestCircuitJSONFailedBuilderRefuses(t *testing.T) {
	c := NewCircuit()
	other := NewCircuit()
	c.Add(c.Input("x"), other.Input("y")) // cross-circuit misuse
	if _, err := json.Marshal(c); err == nil {
		t.Fatal("marshaling a failed builder must surface its error")
	}
}

// TestCircuitJSONNonCanonicalBase64: a payload whose base64 sets the
// padding bits the last character leaves over decodes to the same words
// as the canonical text, re-encodes to that text, and the re-encoding is
// a fixed point, so both spellings get one PlanID.
func TestCircuitJSONNonCanonicalBase64(t *testing.T) {
	const doc = `{"version":2,"nodes":[{"op":"Input","name":"x"},{"op":"MulPlain","args":[0],"values":"AAAAAAAA8D9="}],"outputs":[{"name":"y","node":1}]}`
	want := strings.Replace(doc, "8D9=", "8D8=", 1)
	var c Circuit
	if err := json.Unmarshal([]byte(doc), &c); err != nil {
		t.Fatal(err)
	}
	if got := c.nodes[1].vals; len(got) != 1 || got[0] != 1 {
		t.Fatalf("payload decodes to %v, want [1]", got)
	}
	first, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != want {
		t.Fatalf("re-encodes to\n%s\nwant\n%s", first, want)
	}
	var again Circuit
	if err := json.Unmarshal(first, &again); err != nil {
		t.Fatal(err)
	}
	if second, err := json.Marshal(&again); err != nil || string(second) != want {
		t.Fatalf("not a fixed point (%v):\n%s", err, second)
	}
}

// TestCircuitJSONPayloadBits: payload words cross the codec bit for bit —
// signed zeros, subnormals, the extremes of the finite range and complex
// parts — and a real payload carries no values_im.
func TestCircuitJSONPayloadBits(t *testing.T) {
	vals := []complex128{
		complex(math.Copysign(0, -1), 0), complex(math.SmallestNonzeroFloat64, -math.MaxFloat64),
		complex(0.1, 1e-310), complex(-1.0/3, math.Copysign(0, -1)), complex(math.MaxFloat64, 2),
	}
	c := NewCircuit()
	x := c.Input("x")
	c.Output("y", c.AddPlainPeriodic(c.MulPlainPeriodic(x, vals[:4]), []complex128{0.1, -0.2, complex(math.Copysign(0, -1), math.Copysign(0, -1)), 3}))
	c.Output("z", c.MulPlain(x, []float64{0.5, math.Nextafter(1, 2)}))
	c.Output("w", c.AddPlain(x, []float64{-7}))
	c.Output("v", c.MulPlainComplex(x, vals))
	blob, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(blob), `"values_im"`); n != 2 {
		t.Fatalf("%d values_im fields, want 2 (the complex payloads): %s", n, blob)
	}
	var d Circuit
	if err := json.Unmarshal(blob, &d); err != nil {
		t.Fatal(err)
	}
	for i, n := range c.nodes {
		m := d.nodes[i]
		if len(m.vals) != len(n.vals) || m.periodic != n.periodic {
			t.Fatalf("node %d: %d values (periodic %v), want %d (periodic %v)", i, len(m.vals), m.periodic, len(n.vals), n.periodic)
		}
		// A payload with no non-zero imaginary part carries none, so its
		// imaginary parts decode as +0.
		anyIm := false
		for _, v := range n.vals {
			anyIm = anyIm || imag(v) != 0
		}
		for j, v := range n.vals {
			w, im := m.vals[j], imag(v)
			if !anyIm {
				im = 0
			}
			if math.Float64bits(real(v)) != math.Float64bits(real(w)) || math.Float64bits(im) != math.Float64bits(imag(w)) {
				t.Fatalf("node %d value %d: %v decodes to %v", i, j, v, w)
			}
		}
	}
}

package heax

// Round-trip and validation tests for the circuit DAG encoding: an
// exported circuit must import to one that compiles to a bit-identical
// plan, and malformed descriptions must fail with typed errors, never
// panic.

import (
	"encoding/json"
	"errors"
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
		{"unknown op", `{"version":1,"nodes":[{"op":"Bootstrap"}],"outputs":[]}`, "unknown op"},
		{"forward reference", `{"version":1,"nodes":[{"op":"Rotate","args":[1],"step":1},{"op":"Input","name":"x"}],"outputs":[]}`, "earlier nodes"},
		{"self reference", `{"version":1,"nodes":[{"op":"Input","name":"x"},{"op":"Add","args":[1,0]}],"outputs":[]}`, "earlier nodes"},
		{"wrong arity", `{"version":1,"nodes":[{"op":"Input","name":"x"},{"op":"Add","args":[0]}],"outputs":[]}`, "operands"},
		{"empty input name", `{"version":1,"nodes":[{"op":"Input"}],"outputs":[]}`, "empty name"},
		{"duplicate input", `{"version":1,"nodes":[{"op":"Input","name":"x"},{"op":"Input","name":"x"}],"outputs":[]}`, "duplicate input"},
		{"missing payload", `{"version":1,"nodes":[{"op":"Input","name":"x"},{"op":"MulPlain","args":[0]}],"outputs":[]}`, "no plaintext payload"},
		{"double payload", `{"version":1,"nodes":[{"op":"Input","name":"x"},{"op":"MulPlain","args":[0],"values":[1],"scalar":2}],"outputs":[]}`, "both a scalar and a vector"},
		{"bad width", `{"version":1,"nodes":[{"op":"Input","name":"x"},{"op":"InnerSum","args":[0],"n2":3}],"outputs":[]}`, "power of two"},
		{"stray name", `{"version":1,"nodes":[{"op":"Input","name":"x"},{"op":"Rotate","args":[0],"step":1,"name":"x"}],"outputs":[]}`, "must not carry"},
		{"bad output node", `{"version":1,"nodes":[{"op":"Input","name":"x"}],"outputs":[{"name":"y","node":3}]}`, "references node"},
		{"duplicate output", `{"version":1,"nodes":[{"op":"Input","name":"x"}],"outputs":[{"name":"y","node":0},{"name":"y","node":0}]}`, "duplicate output"},
		{"empty output name", `{"version":1,"nodes":[{"op":"Input","name":"x"}],"outputs":[{"name":"","node":0}]}`, "empty name"},
		{"zero bound", `{"version":1,"nodes":[{"op":"Input","name":"x","bound":0}],"outputs":[]}`, "bound 0"},
		{"negative bound", `{"version":1,"nodes":[{"op":"Input","name":"x","bound":-1}],"outputs":[]}`, "bound -1"},
		{"infinite bound", `{"version":1,"nodes":[{"op":"Input","name":"x","bound":1e999}],"outputs":[]}`, "bound"},
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

// exampleCircuitJSON is exampleCircuit's encoding from before bounds
// existed: an unbounded circuit must still encode to exactly these bytes,
// so heax-serve keeps its PlanID.
const exampleCircuitJSON = `{"version":1,"nodes":[{"op":"Input","name":"x"},{"op":"Input","name":"w"},{"op":"MulRelin","args":[0,0]},{"op":"Rotate","args":[0],"step":1},{"op":"Rotate","args":[0],"step":2},{"op":"Add","args":[3,4]},{"op":"MulPlain","args":[1],"values":[0.5,-1,2]},{"op":"MulPlain","args":[5],"scalar":0.25},{"op":"Add","args":[6,7]},{"op":"Add","args":[2,8]},{"op":"AddPlain","args":[9],"scalar":1},{"op":"InnerSum","args":[5],"n2":2}],"outputs":[{"name":"y","node":10},{"name":"z","node":11}]}`

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
	f.Add([]byte(`{"version":1,"nodes":[{"op":"Input","name":"x","bound":2}],"outputs":[{"name":"y","node":0}]}`))
	f.Add([]byte(`{"version":1,"nodes":[{"op":"Input","name":"x"},{"op":"MulPlainPeriodic"}],"outputs":[]}`))
	f.Add([]byte(`{"version":1,"nodes":[{"op":"Input","name":"x","bound":-0}],"outputs":[]}`))
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

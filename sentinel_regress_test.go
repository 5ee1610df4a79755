package heax_test

// Regression tests for the sentinel-wrapping fixes heaxlint forced:
// every error site the suite flagged must now be branchable with
// errors.Is — string matching was the only option before.

import (
	"encoding/json"
	"errors"
	"testing"

	"heax"
)

// TestCircuitDecodeWrapsErrCorrupt: every structural rejection in
// UnmarshalJSON is errors.Is(err, heax.ErrCorrupt) — serving layers
// map that to the wire's corrupt code instead of an internal error.
func TestCircuitDecodeWrapsErrCorrupt(t *testing.T) {
	blobs := map[string]string{
		"bad version":       `{"version":7,"nodes":[],"outputs":[]}`,
		"unknown op":        `{"version":1,"nodes":[{"op":"Bootstrap"}],"outputs":[]}`,
		"forward reference": `{"version":1,"nodes":[{"op":"Rotate","args":[1],"step":1},{"op":"Input","name":"x"}],"outputs":[]}`,
		"wrong arity":       `{"version":1,"nodes":[{"op":"Input","name":"x"},{"op":"Add","args":[0]}],"outputs":[]}`,
		"empty input name":  `{"version":1,"nodes":[{"op":"Input"}],"outputs":[]}`,
		"duplicate input":   `{"version":1,"nodes":[{"op":"Input","name":"x"},{"op":"Input","name":"x"}],"outputs":[]}`,
		"missing payload":   `{"version":1,"nodes":[{"op":"Input","name":"x"},{"op":"MulPlain","args":[0]}],"outputs":[]}`,
		"double payload":    `{"version":1,"nodes":[{"op":"Input","name":"x"},{"op":"MulPlain","args":[0],"values":[1],"scalar":2}],"outputs":[]}`,
		"bad width":         `{"version":1,"nodes":[{"op":"Input","name":"x"},{"op":"InnerSum","args":[0],"n2":3}],"outputs":[]}`,
		"stray name":        `{"version":1,"nodes":[{"op":"Input","name":"x"},{"op":"Rotate","args":[0],"step":1,"name":"x"}],"outputs":[]}`,
		"bad output node":   `{"version":1,"nodes":[{"op":"Input","name":"x"}],"outputs":[{"name":"y","node":3}]}`,
		"duplicate output":  `{"version":1,"nodes":[{"op":"Input","name":"x"}],"outputs":[{"name":"y","node":0},{"name":"y","node":0}]}`,
		"empty output name": `{"version":1,"nodes":[{"op":"Input","name":"x"}],"outputs":[{"name":"","node":0}]}`,
	}
	for name, blob := range blobs {
		var c heax.Circuit
		err := json.Unmarshal([]byte(blob), &c)
		if err == nil {
			t.Fatalf("%s: accepted", name)
		}
		if !errors.Is(err, heax.ErrCorrupt) {
			t.Errorf("%s: error %q does not wrap ErrCorrupt", name, err)
		}
	}
}

// TestCompileSentinels: structural Compile rejections carry
// ErrInvalidCircuit.
func TestCompileSentinels(t *testing.T) {
	k := newAPIKit(t)

	if _, err := heax.NewCircuit().Compile(k.params, k.evk); !errors.Is(err, heax.ErrInvalidCircuit) {
		t.Errorf("Compile with no outputs: %v, want ErrInvalidCircuit", err)
	}
	if _, err := heax.NewCircuit().RequiredRotations(k.params); !errors.Is(err, heax.ErrInvalidCircuit) {
		t.Errorf("RequiredRotations with no outputs: %v, want ErrInvalidCircuit", err)
	}

	// A periodic payload that does not divide the slot count.
	c := heax.NewCircuit()
	x := c.Input("x")
	c.Output("y", c.MulPlainPeriodic(x, []complex128{1, 2, 3}))
	if _, err := c.Compile(k.params, k.evk); !errors.Is(err, heax.ErrInvalidCircuit) {
		t.Errorf("periodic non-divisor payload: %v, want ErrInvalidCircuit", err)
	}
}

// TestPlanLookupSentinels: unknown outputs and missing inputs are
// typed, not stringly.
func TestPlanLookupSentinels(t *testing.T) {
	k := newAPIKit(t)
	c := heax.NewCircuit()
	x := c.Input("x")
	c.Output("y", c.Add(x, x))
	plan, err := c.Compile(k.params, k.evk)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := plan.OutputLevel("nope"); !errors.Is(err, heax.ErrUnknownOutput) {
		t.Errorf("OutputLevel(nope): %v, want ErrUnknownOutput", err)
	}
	if _, err := plan.Run(map[string]*heax.Ciphertext{}); !errors.Is(err, heax.ErrInputMissing) {
		t.Errorf("Run without inputs: %v, want ErrInputMissing", err)
	}
}

// TestFloorCallerSentinels: a nil *Into output and a public-key
// encryption below the top level are level-shape violations, branchable
// as ErrLevelMismatch like every other evaluation error.
func TestFloorCallerSentinels(t *testing.T) {
	k := newAPIKit(t)
	x := k.encrypt(t, []float64{1, 2})
	out, err := heax.NewCiphertext(k.params, 1, k.params.MaxLevel(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func() error{
		"MulRelinInto": func() error { return k.eval.MulRelinInto(x, x, nil) },
		"RescaleInto":  func() error { return k.eval.RescaleInto(x, nil) },
		"RotateInto":   func() error { return k.eval.RotateInto(x, 1, nil) },
		"RotateHoistedInto": func() error {
			return k.eval.RotateHoistedInto(x, []int{1, 2}, []*heax.Ciphertext{out, nil})
		},
		"RotateSumInto": func() error {
			return heax.RotateSumInto(k.eval, []*heax.Ciphertext{x}, []*heax.Plaintext{nil}, []int{1},
				[]*heax.GaloisKey{k.evk.Galois.Rotations[1]}, nil)
		},
		"Encrypt below the top level": func() error {
			pt, err := k.enc.EncodeReal([]float64{1}, k.params.MaxLevel()-1, k.params.DefaultScale())
			if err != nil {
				t.Fatal(err)
			}
			_, err = k.encryptor.Encrypt(pt)
			return err
		},
	}
	for name, fn := range cases {
		if err := fn(); !errors.Is(err, heax.ErrLevelMismatch) {
			t.Errorf("%s: %v, want ErrLevelMismatch", name, err)
		}
	}
}

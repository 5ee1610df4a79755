package heax

// Circuit DAG export/import: a small, versioned JSON encoding of the
// symbolic graph, so a circuit built in one process can be compiled in
// another — the description a client ships to a plan-serving host
// (cmd/heax-serve), which compiles it against the tenant's keys and
// caches the resulting Plan. The encoding carries exactly what the
// builder recorded (no inferred levels or scales: those are the
// compiling side's job), and the importer re-validates everything a
// builder call would have, so a hostile or hand-written description
// can fail but never panic or smuggle in an ill-formed graph.

import (
	"encoding/json"
	"fmt"
	"math"
)

const circuitEncodingVersion = 1

// circuitJSON is the interchange form of a Circuit DAG.
type circuitJSON struct {
	Version int          `json:"version"`
	Nodes   []nodeJSON   `json:"nodes"`
	Outputs []outputJSON `json:"outputs"`
}

type nodeJSON struct {
	Op   string `json:"op"`
	Args []int  `json:"args,omitempty"`
	// Values and Scalar are mutually exclusive payloads of MulPlain /
	// AddPlain: an explicit slot vector, or a broadcast constant (a
	// pointer so that broadcasting 0 survives the round trip).
	// ValuesIm, when present, carries the imaginary parts of Values
	// (same length); it is omitted for real payloads, so circuits built
	// before complex payloads existed encode byte-identically.
	Values   []float64 `json:"values,omitempty"`
	ValuesIm []float64 `json:"values_im,omitempty"`
	Scalar   *float64  `json:"scalar,omitempty"`
	// Periodic marks a vector payload that Compile tiles across all
	// message slots (its length must divide the slot count).
	Periodic bool   `json:"periodic,omitempty"`
	Name     string `json:"name,omitempty"`
	Step     int    `json:"step,omitempty"`
	N2       int    `json:"n2,omitempty"`
	// Bound is the node's declared magnitude bound (Circuit.Bound),
	// omitted when none was declared, so an unbounded circuit encodes
	// byte-identically to one from before bounds existed.
	Bound *float64 `json:"bound,omitempty"`
}

type outputJSON struct {
	Name string `json:"name"`
	Node int    `json:"node"`
}

// kindByName inverts nodeKindNames for the importer.
var kindByName = func() map[string]nodeKind {
	m := make(map[string]nodeKind, len(nodeKindNames))
	for k, name := range nodeKindNames {
		m[name] = nodeKind(k)
	}
	return m
}()

// argCount is the operand arity of each node kind.
func argCount(kind nodeKind) int {
	switch kind {
	case kindInput:
		return 0
	case kindAdd, kindSub, kindMulRelin:
		return 2
	default:
		return 1
	}
}

// MarshalJSON encodes the circuit DAG. A circuit whose builder chain
// already failed refuses to encode with that recorded error, exactly
// as Compile would.
func (c *Circuit) MarshalJSON() ([]byte, error) {
	if c.err != nil {
		return nil, c.err
	}
	enc := circuitJSON{
		Version: circuitEncodingVersion,
		Nodes:   make([]nodeJSON, len(c.nodes)),
		Outputs: make([]outputJSON, len(c.outputs)),
	}
	for i, n := range c.nodes {
		nj := nodeJSON{
			Op:   nodeKindNames[n.kind],
			Name: n.name,
			Step: n.step,
			N2:   n.n2,
		}
		if len(n.args) > 0 {
			nj.Args = append([]int(nil), n.args...)
		}
		if n.bound != 0 {
			b := n.bound
			nj.Bound = &b
		}
		if n.broadcast {
			s := n.scalar
			nj.Scalar = &s
		} else if len(n.vals) > 0 {
			nj.Values = make([]float64, len(n.vals))
			anyIm := false
			for j, v := range n.vals {
				nj.Values[j] = real(v)
				if imag(v) != 0 {
					anyIm = true
				}
			}
			if anyIm {
				nj.ValuesIm = make([]float64, len(n.vals))
				for j, v := range n.vals {
					nj.ValuesIm[j] = imag(v)
				}
			}
			nj.Periodic = n.periodic
		}
		enc.Nodes[i] = nj
	}
	for i, o := range c.outputs {
		enc.Outputs[i] = outputJSON{Name: o.name, Node: o.node}
	}
	return json.Marshal(enc)
}

// UnmarshalJSON decodes and validates a circuit DAG encoded by
// MarshalJSON (or written by hand / another implementation): node kinds
// must exist, operands must reference earlier nodes (so the graph is
// acyclic by construction), inputs must be uniquely named, plaintext
// payloads must be finite and well-formed, and output names must be
// unique. The decoded circuit behaves exactly like one assembled
// through the builder: Compile on both yields the same plan.
func (c *Circuit) UnmarshalJSON(data []byte) error {
	var enc circuitJSON
	if err := json.Unmarshal(data, &enc); err != nil {
		return fmt.Errorf("heax: circuit decode: %w: %w", err, ErrCorrupt)
	}
	if enc.Version != circuitEncodingVersion {
		return fmt.Errorf("heax: circuit decode: unsupported version %d (want %d): %w", enc.Version, circuitEncodingVersion, ErrCorrupt)
	}
	dec := Circuit{inputID: make(map[string]int), outSet: make(map[string]bool)}
	for i, nj := range enc.Nodes {
		kind, ok := kindByName[nj.Op]
		if !ok {
			return fmt.Errorf("heax: circuit decode: node %d has unknown op %q: %w", i, nj.Op, ErrCorrupt)
		}
		if len(nj.Args) != argCount(kind) {
			return fmt.Errorf("heax: circuit decode: node %d (%s) has %d operands, want %d: %w", i, nj.Op, len(nj.Args), argCount(kind), ErrCorrupt)
		}
		for _, a := range nj.Args {
			if a < 0 || a >= i {
				return fmt.Errorf("heax: circuit decode: node %d (%s) references node %d (operands must reference earlier nodes): %w", i, nj.Op, a, ErrCorrupt)
			}
		}
		n := cnode{kind: kind, step: nj.Step, n2: nj.N2, name: nj.Name}
		if len(nj.Args) > 0 {
			n.args = append([]int(nil), nj.Args...)
		}
		if nj.Bound != nil {
			if !isFinite(*nj.Bound) || *nj.Bound <= 0 {
				return fmt.Errorf("heax: circuit decode: node %d (%s): bound %g is not a positive finite magnitude: %w", i, nj.Op, *nj.Bound, ErrCorrupt)
			}
			n.bound = *nj.Bound
		}
		switch kind {
		case kindInput:
			if nj.Name == "" {
				return fmt.Errorf("heax: circuit decode: node %d: input with empty name: %w", i, ErrCorrupt)
			}
			if _, dup := dec.inputID[nj.Name]; dup {
				return fmt.Errorf("heax: circuit decode: node %d: duplicate input %q: %w", i, nj.Name, ErrCorrupt)
			}
			dec.inputID[nj.Name] = i
			dec.inputs = append(dec.inputs, nj.Name)
		case kindMulPlain, kindAddPlain:
			switch {
			case nj.Scalar != nil && (len(nj.Values) > 0 || len(nj.ValuesIm) > 0):
				return fmt.Errorf("heax: circuit decode: node %d (%s) carries both a scalar and a vector payload: %w", i, nj.Op, ErrCorrupt)
			case nj.Scalar != nil:
				if nj.Periodic {
					return fmt.Errorf("heax: circuit decode: node %d (%s): a broadcast constant cannot be periodic: %w", i, nj.Op, ErrCorrupt)
				}
				if !isFinite(*nj.Scalar) {
					return fmt.Errorf("heax: circuit decode: node %d (%s): constant is %g: %w", i, nj.Op, *nj.Scalar, ErrCorrupt)
				}
				n.scalar, n.broadcast = *nj.Scalar, true
			case len(nj.Values) > 0:
				if len(nj.ValuesIm) > 0 && len(nj.ValuesIm) != len(nj.Values) {
					return fmt.Errorf("heax: circuit decode: node %d (%s) has %d imaginary parts for %d values: %w",
						i, nj.Op, len(nj.ValuesIm), len(nj.Values), ErrCorrupt)
				}
				n.vals = make([]complex128, len(nj.Values))
				for j, v := range nj.Values {
					im := 0.0
					if len(nj.ValuesIm) > 0 {
						im = nj.ValuesIm[j]
					}
					if !isFinite(v) || !isFinite(im) {
						return fmt.Errorf("heax: circuit decode: node %d (%s): value %d is %g: %w", i, nj.Op, j, complex(v, im), ErrCorrupt)
					}
					n.vals[j] = complex(v, im)
				}
				n.periodic = nj.Periodic
			default:
				return fmt.Errorf("heax: circuit decode: node %d (%s) has no plaintext payload: %w", i, nj.Op, ErrCorrupt)
			}
		case kindInnerSum:
			if nj.N2 < 1 || nj.N2&(nj.N2-1) != 0 {
				return fmt.Errorf("heax: circuit decode: node %d: InnerSum width %d must be a power of two: %w", i, nj.N2, ErrCorrupt)
			}
		}
		if kind != kindInput && nj.Name != "" {
			return fmt.Errorf("heax: circuit decode: node %d (%s) must not carry an input name: %w", i, nj.Op, ErrCorrupt)
		}
		dec.nodes = append(dec.nodes, n)
	}
	for _, oj := range enc.Outputs {
		if oj.Name == "" {
			return fmt.Errorf("heax: circuit decode: output with empty name: %w", ErrCorrupt)
		}
		if dec.outSet[oj.Name] {
			return fmt.Errorf("heax: circuit decode: duplicate output %q: %w", oj.Name, ErrCorrupt)
		}
		if oj.Node < 0 || oj.Node >= len(dec.nodes) {
			return fmt.Errorf("heax: circuit decode: output %q references node %d of %d: %w", oj.Name, oj.Node, len(dec.nodes), ErrCorrupt)
		}
		dec.outSet[oj.Name] = true
		dec.outputs = append(dec.outputs, circuitOut{name: oj.Name, node: oj.Node})
	}
	*c = dec
	return nil
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

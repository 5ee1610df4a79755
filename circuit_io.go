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
//
// Version 2 carries a vector payload as machine words: "values" and
// "values_im" are standard base64 (padded) of the little-endian float64
// bits, as encoding/json writes a []byte field. encoding/json encodes the
// document; circuit_scan.go decodes it, by encoding/json's rules. Version
// 1 carried payloads as decimal text, whose formatting and parsing were
// most of a compile miss; it is refused like any other unknown version.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
)

const circuitEncodingVersion = 2

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
	// Values holds the real parts as little-endian float64 words (base64
	// on the wire); ValuesIm, when present, the imaginary parts, as many
	// words. ValuesIm is omitted for real payloads.
	Values   []byte   `json:"values,omitempty"`
	ValuesIm []byte   `json:"values_im,omitempty"`
	Scalar   *float64 `json:"scalar,omitempty"`
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
			nj.Values, nj.ValuesIm = payloadWords(n.vals)
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
	// The version is judged first: a well-formed document of another
	// version (version 1's decimal payloads are a type error here) is
	// refused for its version. A type error leaves the other fields
	// decoded; a syntax error decodes nothing.
	var enc circuitJSON
	err := decodeCircuitJSON(data, &enc)
	if (err == nil || enc.Version != 0) && enc.Version != circuitEncodingVersion {
		return fmt.Errorf("heax: circuit decode: unsupported version %d (want %d): %w", enc.Version, circuitEncodingVersion, ErrCorrupt)
	}
	if err != nil {
		return fmt.Errorf("heax: circuit decode: %w: %w", err, ErrCorrupt)
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
			case nj.Scalar != nil && (nj.Values != nil || nj.ValuesIm != nil):
				return fmt.Errorf("heax: circuit decode: node %d (%s) carries both a scalar and a vector payload: %w", i, nj.Op, ErrCorrupt)
			case nj.Scalar != nil:
				if nj.Periodic {
					return fmt.Errorf("heax: circuit decode: node %d (%s): a broadcast constant cannot be periodic: %w", i, nj.Op, ErrCorrupt)
				}
				if !isFinite(*nj.Scalar) {
					return fmt.Errorf("heax: circuit decode: node %d (%s): constant is %g: %w", i, nj.Op, *nj.Scalar, ErrCorrupt)
				}
				n.scalar, n.broadcast = *nj.Scalar, true
			case nj.Values != nil:
				vals, err := payloadValues(nj.Values, nj.ValuesIm)
				if err != nil {
					return fmt.Errorf("heax: circuit decode: node %d (%s): %w", i, nj.Op, err)
				}
				n.vals, n.periodic = vals, nj.Periodic
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

// payloadWords returns a payload's real parts as little-endian float64
// words, and its imaginary parts likewise when any is non-zero (nil
// otherwise).
func payloadWords(vals []complex128) (re, im []byte) {
	re = make([]byte, 8*len(vals))
	anyIm := false
	for j, v := range vals {
		binary.LittleEndian.PutUint64(re[8*j:], math.Float64bits(real(v)))
		anyIm = anyIm || imag(v) != 0
	}
	if anyIm {
		im = make([]byte, 8*len(vals))
		for j, v := range vals {
			binary.LittleEndian.PutUint64(im[8*j:], math.Float64bits(imag(v)))
		}
	}
	return re, im
}

// payloadValues decodes a payload's words: a non-zero whole number of
// them, as many imaginary parts as values when there are any, and every
// value finite; anything else is ErrCorrupt.
func payloadValues(re, im []byte) ([]complex128, error) {
	if len(re) == 0 || len(re)%8 != 0 {
		return nil, fmt.Errorf("payload of %d bytes is not a non-zero whole number of 8-byte words: %w", len(re), ErrCorrupt)
	}
	if im != nil && len(im) != len(re) {
		return nil, fmt.Errorf("%d bytes of imaginary parts for %d bytes of values: %w", len(im), len(re), ErrCorrupt)
	}
	vals := make([]complex128, len(re)/8)
	for j := range vals {
		v, w := math.Float64frombits(binary.LittleEndian.Uint64(re[8*j:])), 0.0
		if im != nil {
			w = math.Float64frombits(binary.LittleEndian.Uint64(im[8*j:]))
		}
		if !isFinite(v) || !isFinite(w) {
			return nil, fmt.Errorf("value %d is %g: %w", j, complex(v, w), ErrCorrupt)
		}
		vals[j] = complex(v, w)
	}
	return vals, nil
}

func isFinite(v float64) bool { return math.Abs(v) <= math.MaxFloat64 }

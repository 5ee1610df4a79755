package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"heax"
)

// compileCorpus returns the FuzzHandleCompilePayload seeds: the
// payloads its f.Add calls build and the files under
// testdata/fuzz/FuzzHandleCompilePayload.
func compileCorpus(t *testing.T) [][]byte {
	t.Helper()
	c := heax.NewCircuit()
	c.Output("y", c.Rotate(c.Input("x"), 1))
	dag, err := c.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var pw payloadWriter
	pw.str("t")
	pw.blob(dag)
	corpus := [][]byte{pw.buf, pw.buf[:len(pw.buf)/2], {}}
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzHandleCompilePayload", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		lit := strings.TrimSpace(strings.TrimPrefix(string(raw), "go test fuzz v1"))
		lit = strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")")
		s, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		corpus = append(corpus, []byte(s))
	}
	if len(files) == 0 {
		t.Fatal("no FuzzHandleCompilePayload corpus files")
	}
	return corpus
}

// TestCanonicalBytesUnchanged: handleCompile decodes and re-encodes a
// circuit through its own UnmarshalJSON and MarshalJSON; the canonical
// bytes, and so every PlanID, must be what json.Unmarshal and
// json.Marshal gave, byte for byte. It checks the compile fuzz corpus
// and names that JSON escapes (<, >, &, U+2028).
func TestCanonicalBytesUnchanged(t *testing.T) {
	var dags [][]byte
	for _, payload := range compileCorpus(t) {
		pr := payloadReader{buf: payload}
		if _, err := pr.str("tenant name"); err != nil {
			continue
		}
		if dag, err := pr.blob("circuit description"); err == nil {
			dags = append(dags, dag)
		}
	}
	c := heax.NewCircuit()
	a, b := c.Input("a<b>"), c.Input("x&y\u2028z")
	c.Output("<out>&\u2028", c.Add(c.MulPlain(a, []float64{1, -2.5, 3e-9}), c.AddConst(b, 0.25)))
	dag, err := c.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, esc := range []string{`\u003c`, `\u003e`, `\u0026`, `\u2028`} {
		if !bytes.Contains(dag, []byte(esc)) {
			t.Fatalf("%s not in the encoding: %s", esc, dag)
		}
	}
	dags = append(dags, dag)
	decoded := 0
	for _, dag := range dags {
		var direct, viaJSON heax.Circuit
		derr := direct.UnmarshalJSON(dag)
		jerr := json.Unmarshal(dag, &viaJSON)
		if (derr == nil) != (jerr == nil) {
			t.Fatalf("UnmarshalJSON error %v, json.Unmarshal error %v on %q", derr, jerr, dag)
		}
		if derr != nil {
			continue
		}
		decoded++
		got, err := direct.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(&viaJSON)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("canonical bytes differ:\n direct %s\n   json %s", got, want)
		}
		if digestCircuit(got) != digestCircuit(want) {
			t.Fatal("plan ids differ")
		}
	}
	if decoded < 4 {
		t.Fatalf("only %d of %d corpus circuits decoded", decoded, len(dags))
	}
}

// TestHandleCompileRefusesMalformed: null, trailing bytes after the
// document, a wrong version (version 1 among them) and a cut document
// are refused with ErrCorrupt before the tenant is looked up.
func TestHandleCompileRefusesMalformed(t *testing.T) {
	params := heax.MustParams(heax.ParamSpec{Name: "codec", LogN: 4, QBits: []int{30, 30}, PBits: 31, LogScale: 20})
	s, err := NewServer(params, WithAdmissionWindow(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := heax.NewCircuit()
	c.Output("y", c.Rotate(c.Input("x"), 1))
	dag, err := c.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	for name, doc := range map[string][]byte{
		"null":     []byte("null"),
		"trailing": append(append([]byte(nil), dag...), []byte(` {}`)...),
		"version":  bytes.Replace(dag, []byte(`"version":2`), []byte(`"version":3`), 1),
		"v1":       bytes.Replace(dag, []byte(`"version":2`), []byte(`"version":1`), 1),
		"cut":      dag[:len(dag)-1],
		"empty":    nil,
	} {
		var pw payloadWriter
		pw.str("nobody")
		pw.blob(doc)
		if _, err := s.handleCompile(pw.buf); !errors.Is(err, heax.ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
}

// TestCompileNilCircuit: a nil circuit is refused on the client with
// ErrInvalidCircuit, sends nothing, and leaves the connection usable.
func TestCompileNilCircuit(t *testing.T) {
	params := chaosParams(t)
	_, addr := startChaosServer(t, params, 0)
	cl, _ := dialChaos(t, addr)
	defer cl.Close()
	if _, err := cl.CompileContext(context.Background(), "nil", nil); !errors.Is(err, heax.ErrInvalidCircuit) {
		t.Fatalf("got %v, want ErrInvalidCircuit", err)
	}
	k := newChaosKit(t, params, 71)
	if err := cl.Register("nil", k.evk); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Compile("nil", chaosCircuit()); err != nil {
		t.Fatal(err)
	}
}

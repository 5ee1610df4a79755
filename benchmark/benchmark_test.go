package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // unsorted on purpose
		}
		return xs
	}
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n, pct int
		value  float64
	}{
		{n: 30, pct: 0, value: 0},      // p75 would leave 7 beyond
		{n: 50, pct: 75, value: 38},    // p90 would leave 5 beyond
		{n: 100, pct: 90, value: 90},   // p95 would leave 5 beyond
		{n: 200, pct: 95, value: 190},  // p99 would leave 2 beyond
		{n: 1000, pct: 99, value: 990}, // exactly 10 beyond
	} {
		v, pct := tailPercentile(seq(c.n))
		if v != c.value || pct != c.pct {
			t.Errorf("tailPercentile(1..%d) = (%v, p%d), want (%v, p%d)", c.n, v, pct, c.value, c.pct)
		}
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4), the
// computation the driver applies to ten runs.
func TestQuartileSpread(t *testing.T) {
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
	if got := quartileSpread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); !near(got, (8.25-2.75)/5.5) {
		t.Errorf("spread of 1..10 = %v, want 1", got)
	}
	if got := quartileSpread([]float64{10, 11, 12, 13, 14, 15}); !near(got, (14.25-10.75)/12.5) {
		t.Errorf("spread of 10..15 = %v, want 0.28", got)
	}
	if got := quartileSpread([]float64{7}); got != 0 {
		t.Errorf("spread of one sample = %v, want 0", got)
	}
}

func TestCreditSetsSharesACallAcrossWindows(t *testing.T) {
	ws := []window{{start: 0, end: 1}, {start: 1, end: 2}, {start: 2, end: 3}}
	calls := []call{
		{start: 0.5, end: 1.5, ok: 2},   // half in each of the first two windows
		{start: 2.0, end: 2.5, ok: 1},   // wholly in the third
		{start: 2.5, end: 4.5, ok: 4},   // a quarter in the third, the rest after the phase
		{start: 0.0, end: 1.0, ok: 0},   // failed: no credit
		{start: 1.0, end: 1.0, ok: 3},   // zero length: ignored
		{start: 1.25, end: 1.75, ok: 1}, // wholly in the second
	}
	got := creditSets(ws, calls)
	want := []float64{1, 2, 2}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("window %d credited %v sets, want %v (all: %v)", i, got[i], want[i], got)
		}
	}
}

func TestStolenWindowsAreSetAside(t *testing.T) {
	ws := func(stolen ...float64) []window {
		out := make([]window, len(stolen))
		for i, s := range stolen {
			out[i] = window{start: float64(i), end: float64(i + 1), stolen: s}
		}
		return out
	}
	for _, c := range []struct {
		name string
		in   []window
		want []float64 // start of each window kept
	}{
		{"all calm", ws(0, 0.01, 0, 0.1, 0, 0), []float64{0, 1, 2, 3, 4, 5}},
		{"two stolen", ws(0, 0.3, 0.11, 0, 0, 0), []float64{0, 3, 4, 5}},
		{"extra windows made up for the stolen ones", ws(0.3, 0.3, 0.3, 0, 0, 0, 0), []float64{3, 4, 5, 6}},
		{"too few calm: all are used", ws(0.3, 0.3, 0.3, 0, 0, 0.2, 0.2, 0.2, 0.2, 0), []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}},
	} {
		got := calmWindows(c.in)
		if len(got) != len(c.want) {
			t.Errorf("%s: kept %d windows, want %d", c.name, len(got), len(c.want))
			continue
		}
		for i, w := range got {
			if w.start != c.want[i] {
				t.Errorf("%s: kept window %d starts at %v, want %v", c.name, i, w.start, c.want[i])
			}
		}
	}
	if got := calmOnes([]float64{1, 2, 3}, []float64{0.5, 0, 0.05}); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("calmOnes kept %v, want [2 3]", got)
	}
	if got := calmOnes([]float64{1, 2}, []float64{0.5, 0.4}); len(got) != 2 {
		t.Errorf("calmOnes with nothing calm kept %v, want both", got)
	}
}

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: 10..50 counted once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped to the parent's end
		{ID: 5, Parent: 3, Name: "grandchild", Start: 25, End: 45},
	}
	self := selfTimes(spans)
	for id, want := range map[int]float64{1: 50, 2: 20, 3: 10, 4: 30, 5: 20} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "call_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "sets_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	m := func(d metricDef, v, spread float64) reportMetric {
		return reportMetric{metricDef: d, Value: v, Spread: spread}
	}
	for _, c := range []struct {
		name     string
		old, cur reportMetric
		drifted  bool
		want     string
	}{
		{"lower within bound", m(lower, 100, 0.02), m(lower, 109, 0.02), false, "ok"},
		{"lower regressed", m(lower, 100, 0.02), m(lower, 111, 0.02), false, "regressed"},
		{"lower improved", m(lower, 100, 0.02), m(lower, 89, 0.02), false, "improved"},
		{"higher within bound", m(higher, 100, 0.02), m(higher, 91, 0.02), false, "ok"},
		{"higher regressed", m(higher, 100, 0.02), m(higher, 89, 0.02), false, "regressed"},
		{"higher improved", m(higher, 100, 0.02), m(higher, 111, 0.02), false, "improved"},
		{"old side too noisy", m(lower, 100, 0.11), m(lower, 150, 0.02), false, "unresolved"},
		{"new side too noisy", m(lower, 100, 0.02), m(lower, 150, 0.11), false, "unresolved"},
		{"drifted", m(lower, 100, 0.02), m(lower, 150, 0.02), true, "unresolved"},
	} {
		if got := verdict(c.old, c.cur, c.drifted); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareFilesFlagsARegression(t *testing.T) {
	doc := func(setsPerS float64, failed int) reportDoc {
		e2e := map[string]reportMetric{}
		for _, d := range endToEnd {
			e2e[d.Name] = reportMetric{metricDef: d, Value: 100, Spread: 0.01}
		}
		m := e2e["sets_per_s"]
		m.Value = setsPerS
		e2e["sets_per_s"] = m
		return reportDoc{Workloads: []workloadReport{{
			Name: "mulrelin-C", Correct: failed == 0, Attempted: 1000, Failed: failed, EndToEnd: e2e,
		}}}
	}
	dir := t.TempDir()
	write := func(name string, d reportDoc) string {
		path := filepath.Join(dir, name)
		b, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", doc(100, 0))
	for _, c := range []struct {
		name      string
		cur       reportDoc
		regressed bool
		row       string
	}{
		{"same", doc(100, 0), false, "ok"},
		{"slower", doc(70, 0), true, "regressed"},
		{"faster", doc(140, 0), false, "improved"},
		{"fast but wrong", doc(140, 3), true, "correctness"},
	} {
		var buf bytes.Buffer
		regressed, err := compareFiles(&buf, base, write(c.name+".json", c.cur))
		if err != nil {
			t.Fatal(err)
		}
		if regressed != c.regressed {
			t.Errorf("%s: regressed = %v, want %v\n%s", c.name, regressed, c.regressed, buf.String())
		}
		if !strings.Contains(buf.String(), c.row) {
			t.Errorf("%s: no %q row in\n%s", c.name, c.row, buf.String())
		}
		if rows := strings.Count(buf.String(), "mulrelin-C"); rows < len(endToEnd) {
			t.Errorf("%s: %d rows, want one per end-to-end metric (%d)", c.name, rows, len(endToEnd))
		}
	}
}

// benchmarkJSON is the driver's view of the benchmark.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bj
}

// BENCHMARK.json and the tables in this package must name the same
// workloads and metrics: a later issue cites them by these names.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	bj := readBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the code %q / %q", i, bj.Workloads[i], w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: name or why outside the contract's limits", w.name)
		}
	}
	check := func(kind string, listed, coded []metricDef) {
		if len(listed) != len(coded) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(listed), len(coded))
		}
		seen := map[string]bool{}
		for i, d := range coded {
			if listed[i] != d {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the code %+v", kind, i, listed[i], d)
			}
			if !nameRE.MatchString(d.Name) || seen[d.Name] {
				t.Errorf("%s metric %q: bad or repeated name", kind, d.Name)
			}
			seen[d.Name] = true
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s metric %q: better = %q", kind, d.Name, d.Better)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
}

// TestSmoke runs every workload for one second in both modes and holds
// the output to the contract: the JSON parses, names exactly the listed
// metrics, nothing failed and the decryption error is within bound.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			if testing.Short() && w.spec.Name != "Set-A" {
				t.Skip("Set-C workloads take several seconds to set up")
			}
			spans := filepath.Join(t.TempDir(), "spans.json")
			for _, mode := range []struct {
				trace bool
				defs  []metricDef
			}{{false, endToEnd}, {true, perLayer}} {
				out, det, err := runWorkload(w, options{
					seed: 3, seconds: 1, trace: mode.trace, traceOut: spans, setupReps: 1, samples: 3,
				})
				if err != nil {
					t.Fatal(err)
				}
				line, err := json.Marshal(out)
				if err != nil {
					t.Fatal(err)
				}
				var parsed outcome
				if err := json.Unmarshal(line, &parsed); err != nil {
					t.Fatalf("result line does not parse: %v\n%s", err, line)
				}
				if !parsed.Correct || parsed.Failed != 0 || parsed.Attempted < 1 {
					t.Errorf("trace=%v: correct=%v attempted=%d failed=%d", mode.trace, parsed.Correct, parsed.Attempted, parsed.Failed)
				}
				if det.MaxAbsErr > w.errBound || det.MaxAbsErr <= 0 {
					t.Errorf("max_abs_err = %g, bound %g", det.MaxAbsErr, w.errBound)
				}
				if len(parsed.Metrics) != len(mode.defs) {
					t.Errorf("trace=%v: %d metrics, want %d", mode.trace, len(parsed.Metrics), len(mode.defs))
				}
				for _, d := range mode.defs {
					m, ok := parsed.Metrics[d.Name]
					if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("trace=%v: metric %q = %+v (present %v)", mode.trace, d.Name, m, ok)
					}
					if !mode.trace && m.Value <= 0 {
						t.Errorf("end-to-end metric %q = %v, must never be 0", d.Name, m.Value)
					}
				}
				if mode.trace {
					if parsed.Metrics["check.failed_share"].Value != 0 {
						t.Errorf("check.failed_share = %v", parsed.Metrics["check.failed_share"].Value)
					}
					checkSpanFile(t, spans, w.served)
				}
			}
		})
	}
}

func checkSpanFile(t *testing.T, path string, served bool) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(b, &spans); err != nil {
		t.Fatalf("span file does not parse: %v", err)
	}
	names := map[string]int{}
	for _, s := range spans {
		names[s.Name]++
		if s.End < s.Start || s.Parent >= s.ID {
			t.Fatalf("malformed span %+v", s)
		}
	}
	want := []string{"heax.mulrelin_rescale", "heax.mulrelin_into", "heax.rescale_into"}
	if served {
		want = []string{"serve.call", "serve.send", "serve.wait", "serve.recv", "heax.plan_run"}
	}
	for _, name := range want {
		if names[name] == 0 {
			t.Errorf("no %q span among %d spans", name, len(spans))
		}
	}
}

// TestNegativeControl: the correctness check must catch a response that
// is off by one coefficient and a cleartext reference that is off by
// more than the bound, and count the sets as failed — otherwise a
// change that breaks bit-exactness could post a fast number.
func TestNegativeControl(t *testing.T) {
	w := findWorkload("matvec-serve-A")
	probe, err := newProber()
	if err != nil {
		t.Fatal(err)
	}
	r, err := setUp(w, 5, probe)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	single := func(do func(int, []int) ([]ctSet, error)) *phase { return runPhase(r, 0.6, 1, 1, do) }

	if p := single(r.call); p.attempted == 0 || p.failed != 0 {
		t.Fatalf("untampered: attempted %d, failed %d", p.attempted, p.failed)
	}

	flipped := single(func(k int, sets []int) ([]ctSet, error) {
		out, err := r.call(k, sets)
		if err == nil {
			out[0]["y"].Polys[1].Coeffs[0][17] ^= 1
		}
		return out, err
	})
	if flipped.attempted == 0 || flipped.failed != flipped.attempted {
		t.Errorf("one flipped coefficient per response: %d of %d sets counted failed, want all", flipped.failed, flipped.attempted)
	}
	if _, sets, _ := flipped.windowSamples(true); median(sets) != 0 {
		t.Errorf("failed sets earned throughput: %v", sets)
	}

	// Now a wrong reference for pool set 0 only — the set every phase
	// of one caller begins with, however few calls it has time for.
	r.want[0]["y"][0] += 2 * w.errBound
	if err := r.checkCleartext(); err != nil {
		t.Fatal(err)
	}
	if !r.bad[0] || r.bad[1] || r.maxAbsErr <= w.errBound {
		t.Fatalf("perturbed reference not flagged: bad=%v max_abs_err=%g", r.bad, r.maxAbsErr)
	}
	p := single(r.call)
	hits := 0
	for i := range p.calls {
		if i%len(r.pool) == 0 {
			hits++
		}
	}
	if hits == 0 || p.failed != hits {
		t.Errorf("set 0 was served %d times but %d of %d sets counted failed", hits, p.failed, p.attempted)
	}
}

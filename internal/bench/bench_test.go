package bench

import (
	"regexp"
	"runtime"
	"strings"
	"testing"

	"heax/internal/ckks"
)

func TestTableRender(t *testing.T) {
	tb := Table{
		Title:  "demo",
		Note:   "a note",
		Header: []string{"a", "long-header"},
		Rows:   [][]string{{"1", "2"}, {"wide-cell", "3"}},
	}
	out := tb.Render()
	for _, want := range []string{"== demo ==", "long-header", "wide-cell", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestStaticTables(t *testing.T) {
	if got := Table1Boards(); len(got.Rows) != 2 {
		t.Fatalf("Table 1 rows = %d", len(got.Rows))
	}
	if got := Table3Cores(); len(got.Rows) != 3 {
		t.Fatalf("Table 3 rows = %d", len(got.Rows))
	}
	if got := Table4Modules(); len(got.Rows) != 12 {
		t.Fatalf("Table 4 rows = %d", len(got.Rows))
	}
	if got := WordSizeAblationTable(); len(got.Rows) != 3 {
		t.Fatalf("word-size rows = %d", len(got.Rows))
	}
}

func TestGeneratedTables(t *testing.T) {
	t2, err := Table2Params()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range t2.Rows {
		if row[2] != row[3] {
			t.Errorf("Table 2 %s: modulus bits %s != paper %s", row[0], row[3], row[2])
		}
		if row[5] != "true" || row[6] != "true" {
			t.Errorf("Table 2 %s: constraint violated: %v", row[0], row)
		}
	}
	t5, err := Table5Architectures()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range t5.Rows {
		if row[4] != "true" {
			t.Errorf("Table 5 %s/%s: generated %q != paper %q", row[0], row[1], row[2], row[3])
		}
	}
	if _, err := Table6Designs(); err != nil {
		t.Fatal(err)
	}
	f2t, err := Fig2AccessPattern()
	if err != nil {
		t.Fatal(err)
	}
	if len(f2t.Rows) != 12 {
		t.Fatalf("Fig 2 trace rows = %d, want 12", len(f2t.Rows))
	}
	f4, err := Fig4PipelineAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(f4.Rows) != 4 {
		t.Fatalf("Fig 4 rows = %d", len(f4.Rows))
	}
	f6, gantt, err := Fig6Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	if len(f6.Rows) != 4 || gantt == "" {
		t.Fatalf("Fig 6: rows %d, gantt empty=%v", len(f6.Rows), gantt == "")
	}
	ab, err := AblationBuffers()
	if err != nil {
		t.Fatal(err)
	}
	if len(ab.Rows) != 5 {
		t.Fatalf("buffer ablation rows = %d", len(ab.Rows))
	}
	s5, err := Sec5System()
	if err != nil {
		t.Fatal(err)
	}
	if len(s5.Rows) != 4 {
		t.Fatalf("Sec 5 rows = %d", len(s5.Rows))
	}
	sc, err := ScalabilityTable()
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Rows) != 2 {
		t.Fatalf("scalability rows = %d", len(sc.Rows))
	}
	hs, err := HostStreamingTable()
	if err != nil {
		t.Fatal(err)
	}
	if len(hs.Rows) != 8 {
		t.Fatalf("host streaming rows = %d, want 2 ops on each of 4 configurations", len(hs.Rows))
	}
	if got := SweepTable(); len(got.Rows) != 24 {
		t.Fatalf("sweep rows = %d, want 6 widths on each of 4 configurations", len(got.Rows))
	}

	// Every experiment in one report; with no CPU measurements, each of
	// Table 7's 12 rows and Table 8's 8 prints CPU(go) 0 and speedup(go) "-".
	all, err := AllTables(CPUMeasurements{})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(regexp.MustCompile(`(?m)^== .* ==$`).FindAllString(all, -1)); n != 17 {
		t.Fatalf("AllTables rendered %d tables, want 17", n)
	}
	placeholders := 0
	for _, line := range strings.Split(all, "\n") {
		if f := strings.Fields(line); len(f) == 9 && f[3] == "0" && f[7] == "-" {
			placeholders++
		}
	}
	if placeholders != 20 {
		t.Fatalf("AllTables printed %d Table 7/8 rows without a CPU rate, want 20", placeholders)
	}
}

// Tables 7/8 with and without CPU measurements; the quick CPU measurement
// exercises the whole baseline across all three parameter sets. Its one
// worker is the measurement's own: GOMAXPROCS and the worker count a new
// fixture's evaluator finds are what they were before it.
func TestPerfTablesWithCPU(t *testing.T) {
	if testing.Short() {
		t.Skip("CPU measurement skipped in -short mode")
	}
	workers := func() int {
		f, err := NewFixture(ckks.SetA)
		if err != nil {
			t.Fatal(err)
		}
		return f.eval.Workers()
	}
	procs, found := runtime.GOMAXPROCS(0), workers()
	cpu, err := MeasureCPU(true)
	if err != nil {
		t.Fatal(err)
	}
	if got, w := runtime.GOMAXPROCS(0), workers(); got != procs || w != found {
		t.Fatalf("after MeasureCPU: GOMAXPROCS %d and fixture workers %d, want %d and %d", got, w, procs, found)
	}
	for _, set := range []string{"Set-A", "Set-B", "Set-C"} {
		for name, m := range map[string]map[string]float64{
			"NTT": cpu.NTT, "INTT": cpu.INTT, "Dyadic": cpu.Dyadic,
			"KeySwitch": cpu.KeySwitch, "MulRelin": cpu.MulRelin,
		} {
			if m[set] <= 0 {
				t.Errorf("%s %s: no measurement", set, name)
			}
		}
	}
	// Larger parameter sets must be slower per ciphertext op.
	if cpu.KeySwitch["Set-A"] <= cpu.KeySwitch["Set-C"] {
		t.Error("Set-A KeySwitch should be faster than Set-C")
	}
	t7, err := Table7LowLevel(cpu)
	if err != nil {
		t.Fatal(err)
	}
	if len(t7.Rows) != 12 {
		t.Fatalf("Table 7 rows = %d", len(t7.Rows))
	}
	t8, err := Table8HighLevel(cpu)
	if err != nil {
		t.Fatal(err)
	}
	if len(t8.Rows) != 8 {
		t.Fatalf("Table 8 rows = %d", len(t8.Rows))
	}
	// The zero value (heax-bench -nocpu) must render placeholders, not crash.
	if _, err := Table7LowLevel(CPUMeasurements{}); err != nil {
		t.Fatal(err)
	}
	if _, err := Table8HighLevel(CPUMeasurements{}); err != nil {
		t.Fatal(err)
	}
}

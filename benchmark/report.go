package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"text/tabwriter"
)

// reportDoc is what `go run ./benchmark` prints with no --workload: one
// JSON document for all workloads, and the input of --compare.
type reportDoc struct {
	Host       hostInfo         `json:"host"`
	RunSeconds float64          `json:"run_seconds"`
	Runs       int              `json:"runs"`
	Workloads  []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name    string `json:"name"`
	Why     string `json:"why"`
	Correct bool   `json:"correct"`
	// Attempted and Failed count input sets over all end-to-end runs.
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// DriftedRuns counts the end-to-end runs whose host speed left the
	// calibrated range; the workload is Drifted when at least half did,
	// because then the median over runs may be one of them.
	DriftedRuns int     `json:"drifted_runs"`
	Drifted     bool    `json:"drifted"`
	MaxAbsErr   float64 `json:"max_abs_err"`
	ErrBound    float64 `json:"err_bound"`
	// HostSpeed is the median probe reading over the windows of all
	// end-to-end runs (1 = the reference host); Raw holds the medians of
	// the wall-clock values the end-to-end metrics had before scaling.
	HostSpeed float64                 `json:"host_speed"`
	Raw       map[string]float64      `json:"raw"`
	EndToEnd  map[string]reportMetric `json:"end_to_end"`
	PerLayer  map[string]metricValue  `json:"per_layer"`
	// TracingOverheadMS is the traced call's median minus the untraced
	// one's; meaningful where both use one client and one set per call.
	TracingOverheadMS float64 `json:"tracing_overhead_ms"`
}

type reportMetric struct {
	metricDef
	// Value is the median over Runs, each run's own value.
	Value float64   `json:"value"`
	Runs  []float64 `json:"runs"`
	// Samples are the values inside the runs (the measured windows or three
	// set-up repetitions each), pooled.
	Samples []float64 `json:"samples"`
	// Spread is the quartile distance over the median: of Runs when
	// there are at least four, otherwise of Samples.
	Spread float64 `json:"spread"`
}

// report runs every workload, each run in a fresh child process of this
// binary so that set-up time and peak memory belong to one workload.
func report(w io.Writer, seed int64, seconds float64, runs int, traceOut string) error {
	doc := reportDoc{Host: readHost(seed), RunSeconds: seconds, Runs: runs}
	for _, wl := range workloads {
		wr := workloadReport{Name: wl.name, Why: wl.why, Correct: true, EndToEnd: map[string]reportMetric{}}
		var speeds []float64
		raw := map[string][]float64{}
		e2e := map[string]*reportMetric{}
		for _, d := range endToEnd {
			e2e[d.Name] = &reportMetric{metricDef: d}
		}
		for i := 0; i < runs; i++ {
			out, det, err := runChild(wl.name, seed+int64(i), seconds, 0, "")
			if err != nil {
				return err
			}
			wr.Correct = wr.Correct && out.Correct
			wr.Attempted += out.Attempted
			wr.Failed += out.Failed
			if det.Drifted {
				wr.DriftedRuns++
			}
			wr.MaxAbsErr, wr.ErrBound = det.MaxAbsErr, det.ErrBound
			speeds = append(speeds, det.HostSpeed...)
			for name, v := range det.Raw {
				raw[name] = append(raw[name], v)
			}
			for name, m := range e2e {
				m.Runs = append(m.Runs, out.Metrics[name].Value)
				m.Samples = append(m.Samples, det.Samples[name]...)
			}
		}
		for name, m := range e2e {
			m.Value = median(m.Runs)
			m.Spread = quartileSpread(m.Samples)
			if len(m.Runs) >= 4 {
				m.Spread = quartileSpread(m.Runs)
			}
			wr.EndToEnd[name] = *m
		}
		wr.Drifted = 2*wr.DriftedRuns >= runs
		wr.HostSpeed, wr.Raw = median(speeds), map[string]float64{}
		for name, vs := range raw {
			wr.Raw[name] = median(vs)
		}
		out, _, err := runChild(wl.name, seed, seconds, 1, traceOutFor(traceOut, wl.name))
		if err != nil {
			return err
		}
		wr.Correct = wr.Correct && out.Correct
		wr.PerLayer = out.Metrics
		wr.TracingOverheadMS = out.Metrics["trace.call_p50_ms"].Value - wr.EndToEnd["call_p50_ms"].Value
		doc.Workloads = append(doc.Workloads, wr)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// traceOutFor gives each workload its own span file next to the path
// the caller named.
func traceOutFor(path, workload string) string {
	if path == "" {
		return ""
	}
	return path + "." + workload + ".json"
}

// runChild runs one workload in a child process and parses the two
// lines it prints.
func runChild(workload string, seed int64, seconds float64, trace int, traceOut string) (outcome, detail, error) {
	self, err := os.Executable()
	if err != nil {
		return outcome{}, detail{}, err
	}
	args := []string{
		"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace),
	}
	if traceOut != "" {
		args = append(args, "--trace-out", traceOut)
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return outcome{}, detail{}, fmt.Errorf("%s (seed %d, trace %d): %w", workload, seed, trace, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	if len(lines) < 2 {
		return outcome{}, detail{}, fmt.Errorf("%s: child printed %d lines, want 2", workload, len(lines))
	}
	var out outcome
	var det detail
	if err := json.Unmarshal(lines[len(lines)-2], &det); err != nil {
		return out, det, fmt.Errorf("%s: detail line: %w", workload, err)
	}
	if err := json.Unmarshal(lines[len(lines)-1], &out); err != nil {
		return out, det, fmt.Errorf("%s: result line: %w", workload, err)
	}
	return out, det, nil
}

// verdict judges one (workload, end-to-end metric) pair of two reports.
//
//	unresolved  either side drifted, or either side's spread is wider
//	            than the bound: the noise could hide or fake the change
//	regressed   worse than the old value by more than the bound
//	improved    better than the old value by more than the bound
//	ok          within the bound either way
func verdict(old, cur reportMetric, drifted bool) string {
	if drifted || old.Spread > old.Bound || cur.Spread > old.Bound || old.Value == 0 {
		return "unresolved"
	}
	worse := (cur.Value - old.Value) / old.Value
	if old.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > old.Bound:
		return "regressed"
	case worse < -old.Bound:
		return "improved"
	}
	return "ok"
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// reports and reports whether any row regressed.
func compareFiles(w io.Writer, oldPath, newPath string) (regressed bool, err error) {
	var docs [2]reportDoc
	for i, path := range []string{oldPath, newPath} {
		b, err := os.ReadFile(path)
		if err != nil {
			return false, err
		}
		if err := json.Unmarshal(b, &docs[i]); err != nil {
			return false, fmt.Errorf("%s: %w", path, err)
		}
	}
	cur := map[string]workloadReport{}
	for _, wr := range docs[1].Workloads {
		cur[wr.Name] = wr
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tnew/old\tbound\tspread old\tspread new\tverdict")
	for _, ow := range docs[0].Workloads {
		nw, ok := cur[ow.Name]
		if !ok {
			continue
		}
		for _, d := range endToEnd {
			o, okOld := ow.EndToEnd[d.Name]
			n, okNew := nw.EndToEnd[d.Name]
			if !okOld || !okNew {
				continue
			}
			v := verdict(o, n, ow.Drifted || nw.Drifted)
			regressed = regressed || v == "regressed"
			fmt.Fprintf(tw, "%s\t%s\t%.4g %s\t%.4g %s\t%.3f (base: old)\t%s %.0f%%\t%.1f%%\t%.1f%%\t%s\n",
				ow.Name, d.Name, o.Value, o.Unit, n.Value, n.Unit, n.Value/o.Value,
				map[string]string{"lower": "+", "higher": "-"}[o.Better], o.Bound*100, o.Spread*100, n.Spread*100, v)
		}
		if nw.Failed > ow.Failed || (ow.Correct && !nw.Correct) {
			regressed = true
			fmt.Fprintf(tw, "%s\tcorrectness\t%d/%d failed\t%d/%d failed\t\tany\t\t\tregressed\n",
				ow.Name, ow.Failed, ow.Attempted, nw.Failed, nw.Attempted)
		}
	}
	return regressed, tw.Flush()
}

// Command benchmark is the repository's performance benchmark: four
// workloads measured end to end with tracing off, and a traced layer
// ladder that prices the same work at every floor beneath a served
// call. See README.md in this directory.
//
//	go run ./benchmark --workload lr-serve-C --seed 1 --seconds 10 --trace 0
//	go run ./benchmark --workload lr-serve-C --seed 1 --seconds 10 --trace 1 --trace-out spans.json
//	go run ./benchmark --runs 10 > new.json     # every workload, one document
//	go run ./benchmark --compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// options are one run's settings. The command line sets the first
// five; setupReps and samples are fixed there and shortened only by the
// smoke test.
type options struct {
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	// setupReps is how many times an end-to-end run sets up; setup_s is
	// their median. A traced run sets up once.
	setupReps int
	// samples is how many calls each kernel of the ladder is timed over.
	samples int
}

const (
	defaultSetupReps = 3
	defaultSamples   = 20
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the last line a run prints: the driver's contract.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// detail is printed on the line before the outcome: what the report
// mode needs beyond the metric values.
type detail struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Calls      int    `json:"calls"`
	// Samples holds, per end-to-end metric, its value in each window of
	// the timed phase (or each set-up repetition).
	Samples map[string][]float64 `json:"samples,omitempty"`
	// Stages is where the measured rig's set-up time went, in
	// reference-host seconds.
	Stages map[string]float64 `json:"setup_stages"`
	// HostSpeed is the probe's reading in each window of the timed
	// phase (1 = the reference host); Raw holds the wall-clock values
	// the end-to-end metrics had before they were scaled by it.
	HostSpeed []float64          `json:"host_speed,omitempty"`
	Stolen    []float64          `json:"stolen,omitempty"`
	Raw       map[string]float64 `json:"raw,omitempty"`
	// Drifted: the host was too slow or too unsteady during the timed
	// phase for its corrections to be trusted (see phase.drifted).
	Drifted   bool    `json:"drifted"`
	MaxAbsErr float64 `json:"max_abs_err"`
	ErrBound  float64 `json:"err_bound"`
}

// runWorkload sets a workload up, warms it, measures it and checks it.
func runWorkload(w *workload, opt options) (outcome, detail, error) {
	det := detail{Workload: w.name, Seed: opt.seed, GOMAXPROCS: runtime.GOMAXPROCS(0), ErrBound: w.errBound}
	probe, err := newProber()
	if err != nil {
		return outcome{}, det, err
	}
	// timedSetUp returns a rig and records what its set-up took; the
	// rig's stage times are scaled like the total.
	var setups, rawSetups, setupStolen []float64
	timedSetUp := func() (*rig, error) {
		probe.burst()
		stop := probe.watch()
		ticks := readCPUTicks()
		t0 := time.Now()
		r, err := setUp(w, opt.seed, probe)
		t1 := time.Now()
		stolen := readCPUTicks().stolenSince(ticks)
		stop()
		probe.burst()
		if err != nil {
			return nil, err
		}
		speed := probe.speed(t0, t1)
		for name := range r.stage {
			r.stage[name] *= speed
		}
		rawSetups = append(rawSetups, t1.Sub(t0).Seconds())
		setups = append(setups, t1.Sub(t0).Seconds()*speed)
		setupStolen = append(setupStolen, stolen)
		return r, nil
	}
	r, err := timedSetUp()
	if err != nil {
		return outcome{}, det, err
	}
	defer func() { r.close() }()
	det.MaxAbsErr, det.Stages = r.maxAbsErr, r.stage

	// Warm-up: pools fill, the plan cache and the page cache settle.
	runPhase(r, opt.seconds/5, w.clients, w.setsPerCall, r.call)

	out := outcome{Metrics: map[string]metricValue{}}
	var p *phase
	if opt.trace {
		rec := newRecorder()
		m, tp, err := runLadder(r, opt.seconds/2, opt.samples, rec)
		if err != nil {
			return outcome{}, det, err
		}
		p = tp
		m["trace.spans"] = float64(len(rec.spans))
		for _, d := range perLayer {
			out.Metrics[d.Name] = metricValue{Value: m[d.Name], Unit: d.Unit}
		}
		if opt.traceOut != "" {
			if err := rec.writeFile(opt.traceOut); err != nil {
				return outcome{}, det, err
			}
		}
	} else {
		p = runPhase(r, opt.seconds, w.clients, w.setsPerCall, r.call)
		det.HostSpeed = p.hostSpeeds()
		det.Stolen = p.stolenShares()
		det.Drifted = p.drifted()
		rawLat, rawSets, rawCPU := p.windowSamples(false)
		det.Raw = map[string]float64{"call_p50_ms": median(rawLat), "sets_per_s": median(rawSets), "cpu_ms_per_set": median(rawCPU)}
		// The measured rig was set up first, so that the timed phase
		// and peak_rss_mb see a process that has set up once, as a
		// server has. The repetitions that make setup_s a median
		// follow, each after the previous rig is gone: closed, no longer
		// referenced, and its memory returned.
		for i := 1; i < opt.setupReps; i++ {
			r.close()
			r = nil
			debug.FreeOSMemory()
			if r, err = timedSetUp(); err != nil {
				return outcome{}, det, err
			}
		}
		// A set-up the hypervisor stole from is set aside like a window,
		// when there is a calm one to use.
		setups, rawSetups = calmOnes(setups, setupStolen), calmOnes(rawSetups, setupStolen)
		det.Raw["setup_s"] = median(rawSetups)
		latMS, setsPerS, cpuMS := p.windowSamples(true)
		det.Samples = map[string][]float64{
			"setup_s":        setups,
			"sets_per_s":     setsPerS,
			"call_p50_ms":    latMS,
			"cpu_ms_per_set": cpuMS,
			"peak_rss_mb":    {p.cpu.maxRSSMB},
		}
		for _, d := range endToEnd {
			out.Metrics[d.Name] = metricValue{Value: median(det.Samples[d.Name]), Unit: d.Unit}
		}
		// The headline latency is the median over every call, not over
		// the windows' medians.
		out.Metrics["call_p50_ms"] = metricValue{Value: median(p.latenciesMS()), Unit: "ms"}
	}
	det.Calls = len(p.calls)
	out.Attempted, out.Failed = p.attempted, p.failed
	out.Correct = p.attempted > 0 && p.failed == 0 && r.maxAbsErr <= w.errBound
	return out, det, nil
}

func main() {
	name := flag.String("workload", "", "run this one workload and print its result line (default: run every workload and print one report)")
	seed := flag.Int64("seed", 1, "derives every key, model weight, matrix entry and input")
	seconds := flag.Float64("seconds", 15, "length of the measured phase")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced ladder")
	traceOut := flag.String("trace-out", "", "with --trace 1 (or a report): write the spans here as JSON")
	runs := flag.Int("runs", 1, "report mode: end-to-end runs per workload, on consecutive seeds")
	compare := flag.Bool("compare", false, "compare two reports: --compare old.json new.json")
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fail(fmt.Errorf("usage: --compare old.json new.json"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fail(err)
		}
		if regressed {
			os.Exit(1)
		}
	case *name == "":
		if err := report(os.Stdout, *seed, *seconds, *runs, *traceOut); err != nil {
			fail(err)
		}
	default:
		w := findWorkload(*name)
		if w == nil {
			fail(fmt.Errorf("unknown workload %q", *name))
		}
		if *seconds <= 0 || (*trace != 0 && *trace != 1) {
			fail(fmt.Errorf("--seconds must be positive and --trace 0 or 1"))
		}
		opt := options{
			seed: *seed, seconds: *seconds, trace: *trace == 1, traceOut: *traceOut,
			setupReps: defaultSetupReps, samples: defaultSamples,
		}
		out, det, err := runWorkload(w, opt)
		if err != nil {
			fail(err)
		}
		enc := json.NewEncoder(os.Stdout)
		if err := enc.Encode(det); err != nil {
			fail(err)
		}
		if err := enc.Encode(out); err != nil {
			fail(err)
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

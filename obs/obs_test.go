package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestExpositionGolden pins the exact Prometheus text output: HELP and
// TYPE lines, deterministic family ordering (sorted by name), children
// sorted by label values, label-value escaping, histogram bucket
// ladder with +Inf == _count.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	// Registered out of name order on purpose: exposition must sort.
	runs := r.NewCounterVec("zz_runs_total", "Completed runs.", "tenant")
	runs.With("bob").Add(2)
	runs.With("alice").Inc()
	runs.With(`we"ird\te
nant`).Inc()
	g := r.NewGauge("aa_depth", "Queue depth.\nSecond line \\ with backslash.")
	g.Set(3.5)
	h := r.NewHistogram("mm_latency_seconds", "Run latency.", []float64{0.25, 0.5, 1})
	h.Observe(0.25) // le is inclusive: lands in the 0.25 bucket
	h.Observe(0.3)
	h.Observe(99) // overflow -> +Inf only
	r.NewGaugeFunc("nn_uptime", "Callback gauge.", func() float64 { return 7 })

	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP aa_depth Queue depth.\nSecond line \\ with backslash.
# TYPE aa_depth gauge
aa_depth 3.5
# HELP mm_latency_seconds Run latency.
# TYPE mm_latency_seconds histogram
mm_latency_seconds_bucket{le="0.25"} 1
mm_latency_seconds_bucket{le="0.5"} 2
mm_latency_seconds_bucket{le="1"} 2
mm_latency_seconds_bucket{le="+Inf"} 3
mm_latency_seconds_sum 99.55
mm_latency_seconds_count 3
# HELP nn_uptime Callback gauge.
# TYPE nn_uptime gauge
nn_uptime 7
# HELP zz_runs_total Completed runs.
# TYPE zz_runs_total counter
zz_runs_total{tenant="alice"} 1
zz_runs_total{tenant="bob"} 2
zz_runs_total{tenant="we\"ird\\te\nnant"} 1
`
	if got := buf.String(); got != want {
		t.Fatalf("exposition drifted:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestHistogramVecLabels: children share bounds, sort across multiple
// labels, and Delete drops a combination from the exposition.
func TestHistogramVecLabels(t *testing.T) {
	r := NewRegistry()
	v := r.NewHistogramVec("run_seconds", "Per-run latency.", []float64{1}, "tenant", "plan")
	v.With("t", "b").Observe(0.5)
	v.With("t", "a").Observe(2)
	var buf bytes.Buffer
	r.WriteTo(&buf)
	out := buf.String()
	ai := strings.Index(out, `plan="a"`)
	bi := strings.Index(out, `plan="b"`)
	if ai < 0 || bi < 0 || ai > bi {
		t.Fatalf("children out of order or missing:\n%s", out)
	}
	v.Delete("t", "a")
	buf.Reset()
	r.WriteTo(&buf)
	if strings.Contains(buf.String(), `plan="a"`) {
		t.Fatalf("deleted child still exposed:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), `plan="b"`) {
		t.Fatal("surviving child vanished with the deleted one")
	}
}

// TestZeroAllocFastPath pins the zero-allocation contract of every hot
// increment: counters, gauges, histograms, and increments on a cached
// vec child.
func TestZeroAllocFastPath(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c_total", "")
	g := r.NewGauge("g", "")
	h := r.NewHistogram("h_seconds", "", ExpBuckets(0.001, 2, 16))
	cv := r.NewCounterVec("cv_total", "", "tenant")
	cached := cv.With("alice")
	for name, fn := range map[string]func(){
		"Counter.Inc":       func() { c.Inc() },
		"Counter.Add":       func() { c.Add(3) },
		"Gauge.Set":         func() { g.Set(4.2) },
		"Gauge.Add":         func() { g.Add(-1) },
		"Histogram.Observe": func() { h.Observe(0.017) },
		"cached child Inc":  func() { cached.Inc() },
	} {
		if allocs := testing.AllocsPerRun(1000, fn); allocs != 0 {
			t.Errorf("%s allocates %v per op, want 0", name, allocs)
		}
	}
}

// TestConcurrentExposition hammers increments from many goroutines
// while scraping mid-load (run under -race in CI): every scrape must
// stay parseable with a monotonic bucket ladder and +Inf == _count,
// and the final totals must be exact. The workers wait at their halfway
// mark until the first scrape has completed, so at least one scrape
// overlaps the load however the goroutines are scheduled.
func TestConcurrentExposition(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("hits_total", "")
	h := r.NewHistogram("lat_seconds", "", []float64{0.001, 0.01, 0.1})
	cv := r.NewCounterVec("runs_total", "", "tenant")
	const workers, perWorker = 8, 5000
	scraped := make(chan struct{})
	var release sync.Once
	releaseWorkers := func() { release.Do(func() { close(scraped) }) }
	var wg sync.WaitGroup
	wg.Add(workers + 1)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			mine := cv.With(fmt.Sprintf("tenant-%d", w%4))
			for i := 0; i < perWorker; i++ {
				if i == perWorker/2 {
					<-scraped
				}
				c.Inc()
				mine.Inc()
				h.Observe(float64(i%200) / 1000)
			}
		}(w)
	}
	scrapes := 0
	go func() {
		defer wg.Done()
		defer releaseWorkers() // a failed scrape must not leave the workers waiting
		for {
			var buf bytes.Buffer
			if _, err := r.WriteTo(&buf); err != nil {
				t.Error(err)
				return
			}
			checkScrape(t, buf.Bytes())
			scrapes++
			releaseWorkers()
			if c.Value() >= workers*perWorker/2 {
				return
			}
		}
	}()
	wg.Wait()
	if c.Value() != workers*perWorker {
		t.Fatalf("lost increments: %d of %d", c.Value(), workers*perWorker)
	}
	if h.Count() != workers*perWorker {
		t.Fatalf("lost observations: %d of %d", h.Count(), workers*perWorker)
	}
	if scrapes == 0 {
		t.Fatal("the scraper never ran mid-load")
	}
}

// checkScrape asserts structural invariants of one mid-load scrape:
// every line is HELP/TYPE or name{...} value, bucket ladders are
// monotonic, and the +Inf bucket equals the _count sample.
func checkScrape(t *testing.T, scrape []byte) {
	t.Helper()
	var lastBucket, lastCum uint64
	sc := bufio.NewScanner(bytes.NewReader(scrape))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			lastCum = 0
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("unparseable line %q", line)
		}
		n, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		switch {
		case strings.Contains(name, "_bucket"):
			cum := uint64(n)
			if cum < lastCum {
				t.Fatalf("bucket ladder not monotonic at %q", line)
			}
			lastCum = cum
			if strings.Contains(name, `le="+Inf"`) {
				lastBucket = cum
				lastCum = 0
			}
		case strings.Contains(name, "_count"):
			if uint64(n) != lastBucket {
				t.Fatalf("_count %d != +Inf bucket %d", uint64(n), lastBucket)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestRegistrationPanics: duplicate names, invalid names, label
// mismatches and bad buckets are startup bugs and must panic loudly.
func TestRegistrationPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.NewCounter("dup_total", "")
	mustPanic("duplicate name", func() { r.NewGauge("dup_total", "") })
	mustPanic("invalid name", func() { r.NewCounter("9starts_with_digit", "") })
	mustPanic("invalid label", func() { r.NewCounterVec("ok_total", "", "bad-label") })
	mustPanic("empty buckets", func() { r.NewHistogram("h1", "", nil) })
	mustPanic("unsorted buckets", func() { r.NewHistogram("h2", "", []float64{2, 1}) })
	mustPanic("nil gauge func", func() { r.NewGaugeFunc("f1", "", nil) })
	v := r.NewCounterVec("labeled_total", "", "a", "b")
	mustPanic("label arity", func() { v.With("only-one") })
}

// TestBucketHelpers pins the ladder generators and the inclusive
// upper-bound rule.
func TestBucketHelpers(t *testing.T) {
	exp := ExpBuckets(1, 2, 4)
	if want := []float64{1, 2, 4, 8}; !equalF(exp, want) {
		t.Fatalf("ExpBuckets = %v, want %v", exp, want)
	}
	lin := LinearBuckets(10, 5, 3)
	if want := []float64{10, 15, 20}; !equalF(lin, want) {
		t.Fatalf("LinearBuckets = %v, want %v", lin, want)
	}
	r := NewRegistry()
	h := r.NewHistogram("h_seconds", "", []float64{1, 2})
	h.Observe(1) // exactly on a bound: inclusive
	if got := h.counts[0].Load(); got != 1 {
		t.Fatalf("observation on the bound landed in bucket 1 (le is inclusive), counts[0]=%d", got)
	}
	// A trailing +Inf from the caller is the implicit overflow bucket.
	h2 := r.NewHistogram("h2_seconds", "", append(ExpBuckets(1, 2, 2), inf()))
	if len(h2.bounds) != 2 {
		t.Fatalf("trailing +Inf not stripped: bounds %v", h2.bounds)
	}
}

func inf() float64 { return math.Inf(1) }

func equalF(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

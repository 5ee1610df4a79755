package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"heax/internal/ntt"
	"heax/internal/primes"
)

// The hosts this benchmark runs on are shared: the same code reads 12,
// 15 or 19 ms per call depending on what the neighbours are doing, in
// plateaus that last seconds to minutes, and no statistic of raw wall
// time repeats within a quarter. What does repeat is the ratio between
// a call and a fixed piece of work done right next to it. So every
// timing is multiplied by the host's speed at that moment, measured by
// a probe: one strict forward NTT (ntt.Tables.ForwardStrict, frozen
// since the seed — it is the oracle the fast transforms are tested
// against) on every CPU at once. Speed 1 is a host on which a strict
// butterfly takes refButterflyNS; a reading of 0.6 means the host ran
// at 60 % of that, and a 20 ms call is reported as 12 ms. Reported
// times are therefore "milliseconds on the reference host", comparable
// between runs and between commits on the same kind of machine.
const (
	// refButterflyNS is the strict butterfly's cost on the reference
	// host: a quiet 2.1 GHz Xeon core, the machine the first baseline
	// was taken on.
	refButterflyNS = 2.7
	// probeEvery bounds the probe's share of a caller's time: two
	// transforms of about 150 µs every 50 ms is well under 1 %.
	probeEvery = 50 * time.Millisecond
)

type speedSample struct {
	at    time.Time
	speed float64
}

// prober measures and remembers the host's speed.
type prober struct {
	tb    *ntt.Tables
	rows  [][]uint64 // one per CPU
	refUS float64    // what one transform takes on the reference host

	mu      sync.Mutex // held while probing: one probe at a time
	samples []speedSample
}

// The probe's ring is its own, so every workload is measured against
// the same yardstick: degree 8192 over one 49-bit prime, 64 KB a row.
const (
	probeN    = 8192
	probeBits = 49
)

func newProber() (*prober, error) {
	ps, err := primes.NTTPrimes(probeBits, probeN, 1)
	if err != nil {
		return nil, err
	}
	tb, err := ntt.NewTables(ps[0], probeN)
	if err != nil {
		return nil, err
	}
	p := &prober{tb: tb, refUS: refButterflyNS * probeN / 2 * math.Log2(probeN) / 1e3}
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		p.rows = append(p.rows, randomRow(probeN, ps[0], int64(i)+1))
	}
	return p, nil
}

// burst takes several readings in a row, for an interval nothing else
// probes inside (a set-up, a batch of kernel samples): its ends then
// have enough readings for a median.
func (p *prober) burst() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := 0; i < 5; i++ {
		p.probeLocked()
	}
}

// probeLocked runs one transform per CPU, all at once, and records the
// host speed they imply.
func (p *prober) probeLocked() {
	us := make([]float64, len(p.rows))
	var wg sync.WaitGroup
	for i := range p.rows {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t0 := time.Now()
			p.tb.ForwardStrict(p.rows[i])
			us[i] = float64(time.Since(t0)) / float64(time.Microsecond)
		}(i)
	}
	wg.Wait()
	// The mean of the CPUs' speeds, not the speed of their mean time:
	// the workloads spread their work over the CPUs as they free up, so
	// one CPU at half speed costs them a quarter, not a third.
	var sum float64
	for _, u := range us {
		sum += p.refUS / u
	}
	s := speedSample{at: time.Now(), speed: sum / float64(len(us))}
	p.samples = append(p.samples, s)
}

// maybeProbe probes unless a probe ran within probeEvery or is running.
// Callers invoke it between calls, when nothing of theirs is in flight.
func (p *prober) maybeProbe() {
	if !p.mu.TryLock() {
		return
	}
	defer p.mu.Unlock()
	if n := len(p.samples); n > 0 && time.Since(p.samples[n-1].at) < probeEvery {
		return
	}
	p.probeLocked()
}

// watch probes every probeEvery until the returned stop is called, for
// a stretch in which no caller probes (a set-up).
func (p *prober) watch() (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(probeEvery)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				p.maybeProbe()
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// speedPad widens an interval when looking for readings: host speed
// holds for seconds at a time, so readings a quarter second either side
// of a 12 ms call describe it, and their median is steadier than the
// two nearest readings.
const speedPad = 250 * time.Millisecond

// speed is the host speed for an interval: the median of the readings
// taken within speedPad of it, or the nearest reading when there is
// none (1 before any reading exists).
func (p *prober) speed(from, to time.Time) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	from, to = from.Add(-speedPad), to.Add(speedPad)
	lo := sort.Search(len(p.samples), func(i int) bool { return !p.samples[i].at.Before(from) })
	hi := sort.Search(len(p.samples), func(i int) bool { return p.samples[i].at.After(to) })
	switch {
	case hi > lo:
		in := make([]float64, 0, hi-lo)
		for _, s := range p.samples[lo:hi] {
			in = append(in, s.speed)
		}
		return median(in)
	case lo < len(p.samples):
		return p.samples[lo].speed
	case lo > 0:
		return p.samples[lo-1].speed
	}
	return 1
}

// nWindows is how many consecutive windows the timed phase is cut into;
// sets_per_s and cpu_ms_per_set are medians over them, so one odd
// stretch moves neither.
const nWindows = 6

// The probe does not see the other thing a shared host does: taking a
// virtual CPU away for milliseconds at a time. The kernel does — the
// steal column of /proc/stat — and a call that waits at a barrier for a
// stolen CPU slows by far more than the stolen share (a window with 30 %
// stolen read 2.5 times the usual latency after scaling; below 10 %
// nothing showed). Such a window measures the neighbours, so it is set
// aside: the phase's metrics are taken over its calm windows, and the
// phase runs up to maxExtraWindows more windows to have minCalmWindows
// of them. A phase that still has fewer uses all its windows and is
// reported as drifted.
const (
	maxStolen       = 0.10
	minCalmWindows  = 4
	maxExtraWindows = 4
)

// calmOnes returns the values whose stolen share is within maxStolen,
// or all of them when none is.
func calmOnes(values, stolen []float64) []float64 {
	var calm []float64
	for i, v := range values {
		if stolen[i] <= maxStolen {
			calm = append(calm, v)
		}
	}
	if len(calm) == 0 {
		return values
	}
	return calm
}

// calmWindows returns the windows a phase's metrics are taken over: the
// calm ones, or all of them when fewer than minCalmWindows are calm.
func calmWindows(ws []window) []window {
	var calm []window
	for _, w := range ws {
		if w.stolen <= maxStolen {
			calm = append(calm, w)
		}
	}
	if len(calm) < minCalmWindows {
		return ws
	}
	return calm
}

// phase is the record of one measured stretch of closed-loop calls.
// Times are seconds since the phase began, on the wall clock; each call
// and window carries the host speed that applies to it.
type phase struct {
	windows []window // every window, calm or not
	// measured are the windows the metrics are taken over.
	measured          []window
	calls             []call // every call, caller by caller in call order
	attempted, failed int    // input sets of every call
	cpu               usage
	mem0, mem1        runtime.MemStats
}

// runPhase drives `callers` closed-loop callers for the given time:
// each picks its next sets from the pool, makes one call, stamps the
// latency, and only then verifies every returned set against the
// oracle. A set that errors, mismatches a bit, or failed its cleartext
// check counts as failed and earns no throughput. A caller stops at its
// first transport or typed error: its later sets were not attempted.
func runPhase(r *rig, seconds float64, callers, setsPerCall int, do func(k int, sets []int) ([]ctSet, error)) *phase {
	p := &phase{}
	perCaller := make([]phase, callers)
	runtime.ReadMemStats(&p.mem0)
	u0 := readUsage()
	t0 := time.Now()
	at := func(sec float64) time.Time { return t0.Add(time.Duration(sec * float64(time.Second))) }
	since := func() float64 { return time.Since(t0).Seconds() }

	var stop atomic.Bool
	var wg sync.WaitGroup
	for k := 0; k < callers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			me := &perCaller[k]
			sets := make([]int, setsPerCall)
			for n := 0; !stop.Load(); n++ {
				for i := range sets {
					sets[i] = ((k+n)*setsPerCall + i) % len(r.pool)
				}
				r.probe.maybeProbe()
				start := since()
				out, err := do(k, sets)
				end := since()
				ok := 0
				for i := range out {
					if err == nil && r.verify(sets[i], out[i]) {
						ok++
					}
				}
				me.calls = append(me.calls, call{start: start, end: end, ok: ok})
				me.attempted += len(sets)
				me.failed += len(sets) - ok
				if err != nil {
					return
				}
			}
			r.probe.maybeProbe()
		}(k)
	}

	// The main goroutine only sleeps to each window boundary and reads
	// the process and machine CPU clocks there.
	prev, last := u0, 0.0
	ticks := readCPUTicks()
	for calm := 0; len(p.windows) < nWindows || (calm < minCalmWindows && len(p.windows) < nWindows+maxExtraWindows); {
		edge := seconds * float64(len(p.windows)+1) / nWindows
		time.Sleep(time.Duration((edge - since()) * float64(time.Second)))
		now, u := since(), readUsage()
		ticks1 := readCPUTicks()
		w := window{start: last, end: now, cpu: u.cpu() - prev.cpu(), stolen: ticks1.stolenSince(ticks)}
		if w.stolen <= maxStolen {
			calm++
		}
		p.windows = append(p.windows, w)
		prev, last, ticks = u, now, ticks1
	}
	stop.Store(true)
	wg.Wait()
	u1 := readUsage()
	runtime.ReadMemStats(&p.mem1)
	p.cpu = usage{user: u1.user - u0.user, sys: u1.sys - u0.sys, maxRSSMB: u1.maxRSSMB}

	for i := range p.windows {
		w := &p.windows[i]
		w.speed = r.probe.speed(at(w.start), at(w.end))
	}
	p.measured = calmWindows(p.windows)
	for i := range perCaller {
		p.calls = append(p.calls, perCaller[i].calls...)
		p.attempted += perCaller[i].attempted
		p.failed += perCaller[i].failed
	}
	for i := range p.calls {
		c := &p.calls[i]
		c.speed = r.probe.speed(at(c.start), at(c.end))
	}
	return p
}

// drifted reports whether the host left, during the phase, the range
// over which its corrections were seen to hold: too few calm windows,
// or host speeds outside hostUnsteady's limits.
func (p *phase) drifted() bool {
	return len(p.measured) < minCalmWindows || hostUnsteady(p.hostSpeeds())
}

// endedIn reports whether call c ended in window w; the phase's last
// window also takes the calls still in flight at its closing edge.
func (p *phase) endedIn(c call, w window) bool {
	return c.end > w.start && (c.end <= w.end || w.end == p.windows[len(p.windows)-1].end)
}

// latenciesMS returns, in reference-host milliseconds, the latency of
// every call that ended in a measured window.
func (p *phase) latenciesMS() []float64 {
	var ms []float64
	for _, c := range p.calls {
		for _, w := range p.measured {
			if p.endedIn(c, w) {
				ms = append(ms, (c.end-c.start)*1e3*c.speed)
				break
			}
		}
	}
	return ms
}

// windowSamples returns, per measured window: the median latency of
// the calls that ended in it, verified sets per second, and process CPU
// milliseconds per verified set — in reference-host time, or with
// scaled false as the wall clock read them.
func (p *phase) windowSamples(scaled bool) (latMS, setsPerS, cpuMSPerSet []float64) {
	sets := creditSets(p.measured, p.calls)
	for i, w := range p.measured {
		speed := 1.0
		if scaled {
			speed = w.speed
		}
		var ms []float64
		for _, c := range p.calls {
			if p.endedIn(c, w) {
				ms = append(ms, (c.end-c.start)*1e3*speed)
			}
		}
		if len(ms) > 0 {
			latMS = append(latMS, median(ms))
		}
		setsPerS = append(setsPerS, sets[i]/((w.end-w.start)*speed))
		if sets[i] > 0 {
			cpuMSPerSet = append(cpuMSPerSet, w.cpu*speed*1e3/sets[i])
		}
	}
	return latMS, setsPerS, cpuMSPerSet
}

// hostSpeeds returns the host speed of each measured window.
func (p *phase) hostSpeeds() []float64 {
	s := make([]float64, len(p.measured))
	for i, w := range p.measured {
		s[i] = w.speed
	}
	return s
}

// stolenShares returns, for every window, the share of the machine's
// CPU time the hypervisor gave to someone else.
func (p *phase) stolenShares() []float64 {
	s := make([]float64, len(p.windows))
	for i, w := range p.windows {
		s[i] = w.stolen
	}
	return s
}

// okSets is the number of verified sets of the phase.
func (p *phase) okSets() float64 { return float64(p.attempted - p.failed) }

// hostUnsteady reports whether the host-speed readings of a phase's
// windows leave the range over which scaling by them was seen to hold:
// the host ran below half the reference speed, or its slowest window
// was below half its fastest.
func hostUnsteady(speeds []float64) bool {
	if len(speeds) == 0 {
		return false
	}
	lo, hi := speeds[0], speeds[0]
	for _, s := range speeds {
		lo, hi = math.Min(lo, s), math.Max(hi, s)
	}
	return median(speeds) < 0.5 || lo < hi/2
}

package main

import (
	"encoding/json"
	"net"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval at a layer boundary. Spans of one input
// set share SetID; Parent is the ID of the span that caused this one
// (0 for a root). Times are microseconds since the recorder started.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	SetID  int     `json:"set_id"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// recorder keeps the spans of a traced phase in memory; they are
// written out once, when the run ends. Every span is recorded from the
// benchmark's side of a call into a layer, never from inside it.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (rec *recorder) us(t time.Time) float64 {
	return float64(t.Sub(rec.t0)) / float64(time.Microsecond)
}

// open starts a span and returns its ID, so children can name it as
// their parent before it ends.
func (rec *recorder) open(name string, parent, set int, start time.Time) int {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	id := len(rec.spans) + 1
	rec.spans = append(rec.spans, span{ID: id, Parent: parent, Name: name, SetID: set, Start: rec.us(start)})
	return id
}

func (rec *recorder) close(id int, end time.Time) {
	rec.mu.Lock()
	rec.spans[id-1].End = rec.us(end)
	rec.mu.Unlock()
}

func (rec *recorder) add(name string, parent, set int, start, end time.Time) {
	rec.close(rec.open(name, parent, set, start), end)
}

func (rec *recorder) writeFile(path string) error {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	b, err := json.Marshal(rec.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns, per span ID, the span's duration minus the part of
// it that its direct children cover (overlapping children are counted
// once), in microseconds.
func selfTimes(spans []span) map[int]float64 {
	kids := map[int][]span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, edge := 0.0, s.Start
		for _, c := range cs {
			lo, hi := c.Start, c.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// stepTracer is the heax.Tracer the ladder installs on the oracle plan:
// it turns each reported step into a child span of the current
// plan_run span and sums busy time by step kind.
type stepTracer struct {
	rec *recorder

	mu     sync.Mutex
	parent int
	set    int
	busy   map[string]float64 // seconds, by step kind
}

func (t *stepTracer) begin(parent, set int) {
	t.mu.Lock()
	t.parent, t.set = parent, set
	t.mu.Unlock()
}

// ObserveStep is called by the executor as a step finishes, so the
// span ends now and began d ago.
func (t *stepTracer) ObserveStep(kind string, d time.Duration) {
	end := time.Now()
	t.mu.Lock()
	parent, set := t.parent, t.set
	t.busy[kind] += d.Seconds()
	t.mu.Unlock()
	t.rec.add("heax.step."+kind, parent, set, end.Add(-d), end)
}

// stampConn wraps the client's connection to time the three parts of a
// served call from outside serve.Client: first to last request byte
// (send), last request byte to first response byte (wait), first to
// last response byte (recv). One client uses it from one goroutine.
type stampConn struct {
	net.Conn
	firstW, lastW, firstR, lastR time.Time
	bytes                        int64
}

func (c *stampConn) reset() { *c = stampConn{Conn: c.Conn} }

func (c *stampConn) Write(p []byte) (int, error) {
	if c.firstW.IsZero() {
		c.firstW = time.Now()
	}
	n, err := c.Conn.Write(p)
	c.lastW = time.Now()
	c.bytes += int64(n)
	return n, err
}

func (c *stampConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.lastR = time.Now()
		if c.firstR.IsZero() {
			c.firstR = c.lastR
		}
		c.bytes += int64(n)
	}
	return n, err
}

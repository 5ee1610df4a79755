package hwsim

import (
	"fmt"
	"sort"
	"testing"

	"heax/internal/core"
)

// Schedule checking: the cycle-accurate pipeline model (pipeline.go)
// realizes the HEAX key-switch dataflow (Fig. 6-8), so the event order
// of every operation it schedules must satisfy that dataflow's
// dependency structure:
//
//   - a (digit, targetPrime) base-convert+MAC tile whose target differs
//     from the digit's own prime may only start after that digit's INTT
//     has completed (the NTT0 layer consumes INTT0's output);
//   - the digit-diagonal tile (Algorithm 7 line 9 / the model's Dyad.in)
//     reuses the NTT-form input and may start at any time;
//   - the modulus-switching tail starts only after every tile (the
//     accumulation bank handoff, "Data Dependency 2" of Fig. 8);
//   - digits impose no order on each other — the whole point of the
//     pipelined datapath.
//
// validateKeySwitchSchedule checks an event sequence against these
// rules; the tests feed it the per-op events extracted from the cycle
// model's Gantt segments. (The software key switch, ckks/schedule.go,
// joins between its INTT, MAC and flooring passes, so it satisfies the
// rules by construction and has no trace to check.)

// schedEventKind labels one schedule event.
type schedEventKind uint8

const (
	// schedINTT is the completion of a digit's INTT stage.
	schedINTT schedEventKind = iota
	// schedTile is the start of a (digit, target) convert+MAC tile.
	schedTile
	// schedFloor is the start of the modulus-switching tail.
	schedFloor
)

// schedEvent is one schedule observation in global order Seq. For tiles,
// Row is the target accumulator row; Row == Digit marks the diagonal
// tile, and Row < 0 a cross tile whose target is unknown (the cycle
// model's Gantt trace does not record targets).
type schedEvent struct {
	Kind  schedEventKind
	Digit int
	Row   int
	Seq   int
}

// validateKeySwitchSchedule checks one key-switch's schedule against the
// pipeline dependency rules for `digits` decomposition digits and `rows`
// tiles per digit (k+1 in the full-level hardware model).
func validateKeySwitchSchedule(events []schedEvent, digits, rows int) error {
	sorted := append([]schedEvent(nil), events...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Seq < sorted[j].Seq })

	inttDone := make([]bool, digits)
	inttCount := 0
	tileCount := make([]int, digits)
	totalTiles := 0
	floorSeen := false
	for _, e := range sorted {
		if e.Digit >= digits || (e.Kind != schedFloor && e.Digit < 0) {
			return fmt.Errorf("hwsim: event digit %d out of range [0,%d)", e.Digit, digits)
		}
		switch e.Kind {
		case schedINTT:
			if floorSeen {
				return fmt.Errorf("hwsim: INTT of digit %d after modulus switching began", e.Digit)
			}
			if inttDone[e.Digit] {
				return fmt.Errorf("hwsim: duplicate INTT completion for digit %d", e.Digit)
			}
			inttDone[e.Digit] = true
			inttCount++
		case schedTile:
			if floorSeen {
				return fmt.Errorf("hwsim: tile (%d,%d) after modulus switching began", e.Digit, e.Row)
			}
			if e.Row != e.Digit && !inttDone[e.Digit] {
				return fmt.Errorf("hwsim: cross tile (%d,%d) started before digit %d INTT completed",
					e.Digit, e.Row, e.Digit)
			}
			tileCount[e.Digit]++
			totalTiles++
		case schedFloor:
			floorSeen = true
		default:
			return fmt.Errorf("hwsim: unknown event kind %d", e.Kind)
		}
	}
	if inttCount != digits {
		return fmt.Errorf("hwsim: %d INTT completions, want %d", inttCount, digits)
	}
	if totalTiles != digits*rows {
		return fmt.Errorf("hwsim: %d tiles, want %d", totalTiles, digits*rows)
	}
	for d, n := range tileCount {
		if n != rows {
			return fmt.Errorf("hwsim: digit %d ran %d tiles, want %d", d, n, rows)
		}
	}
	return nil
}

// pipelineSchedEvents extracts the schedule events of one KeySwitch
// operation from a traced cycle-model run (SimulateKeySwitchPipeline
// with trace enabled): INTT0 completions, DyadMult tile starts (Dyad.in
// is the digit-diagonal tile), and the first modulus-switching segment.
// Events are ordered by cycle time, INTT completions winning ties so
// that a tile admitted the same cycle its dependency retires validates.
func pipelineSchedEvents(rep PipelineReport, op int) []schedEvent {
	type timed struct {
		ev   schedEvent
		time int64
	}
	var evs []timed
	floorStart := int64(-1)
	for _, s := range rep.Segments {
		if s.Op != op {
			continue
		}
		switch {
		case s.Module == "INTT0":
			evs = append(evs, timed{schedEvent{Kind: schedINTT, Digit: s.Digit, Row: -1}, s.End})
		case s.Module == "Dyad.in":
			// The input-poly dyad: the diagonal tile (needs no NTT0).
			evs = append(evs, timed{schedEvent{Kind: schedTile, Digit: s.Digit, Row: s.Digit}, s.Start})
		case len(s.Module) >= 5 && s.Module[:5] == "Dyad.":
			evs = append(evs, timed{schedEvent{Kind: schedTile, Digit: s.Digit, Row: -1}, s.Start})
		case s.Module == "INTT1.0" || s.Module == "INTT1.1":
			if floorStart < 0 || s.Start < floorStart {
				floorStart = s.Start
			}
		}
	}
	if floorStart >= 0 {
		evs = append(evs, timed{schedEvent{Kind: schedFloor, Digit: -1, Row: -1}, floorStart})
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].time != evs[j].time {
			return evs[i].time < evs[j].time
		}
		return evs[i].ev.Kind < evs[j].ev.Kind
	})
	out := make([]schedEvent, len(evs))
	for i, e := range evs {
		e.ev.Seq = i
		out[i] = e.ev
	}
	return out
}

// The cycle-accurate pipeline model's own trace must satisfy the
// pipeline's dependency rules for every architecture/parameter pairing
// the paper evaluates.
func TestPipelineModelScheduleDependencies(t *testing.T) {
	for _, cfg := range core.PaperArchitectures {
		var set core.ParamSet
		for _, s := range core.ParamSets {
			if s.Name == cfg.Set {
				set = s
			}
		}
		rep := SimulateKeySwitchPipeline(PipelineConfig{Arch: cfg.Arch, Set: set}, 4, true)
		for op := 0; op < 4; op++ {
			events := pipelineSchedEvents(rep, op)
			if err := validateKeySwitchSchedule(events, set.K, set.K+1); err != nil {
				t.Fatalf("%s/%s op %d: pipeline model schedule invalid: %v",
					cfg.Board, cfg.Set, op, err)
			}
		}
	}
}

// The validator must actually reject broken schedules.
func TestValidateKeySwitchScheduleRejects(t *testing.T) {
	// Cross tile before its digit's INTT.
	bad := []schedEvent{
		{Kind: schedTile, Digit: 0, Row: 1, Seq: 0},
		{Kind: schedINTT, Digit: 0, Row: -1, Seq: 1},
		{Kind: schedTile, Digit: 0, Row: 0, Seq: 2},
	}
	if err := validateKeySwitchSchedule(bad, 1, 2); err == nil {
		t.Fatal("early cross tile not rejected")
	}
	// Diagonal tile before INTT is fine, but missing tiles are not.
	incomplete := []schedEvent{
		{Kind: schedTile, Digit: 0, Row: 0, Seq: 0},
		{Kind: schedINTT, Digit: 0, Row: -1, Seq: 1},
	}
	if err := validateKeySwitchSchedule(incomplete, 1, 2); err == nil {
		t.Fatal("missing tiles not rejected")
	}
	// Tile after the modulus-switching tail began.
	late := []schedEvent{
		{Kind: schedINTT, Digit: 0, Row: -1, Seq: 0},
		{Kind: schedTile, Digit: 0, Row: 0, Seq: 1},
		{Kind: schedFloor, Digit: -1, Row: -1, Seq: 2},
		{Kind: schedTile, Digit: 0, Row: 1, Seq: 3},
	}
	if err := validateKeySwitchSchedule(late, 1, 2); err == nil {
		t.Fatal("tile after floor not rejected")
	}
	// A correct minimal schedule passes.
	good := []schedEvent{
		{Kind: schedTile, Digit: 0, Row: 0, Seq: 0},
		{Kind: schedINTT, Digit: 0, Row: -1, Seq: 1},
		{Kind: schedTile, Digit: 0, Row: 1, Seq: 2},
		{Kind: schedFloor, Digit: -1, Row: -1, Seq: 3},
	}
	if err := validateKeySwitchSchedule(good, 1, 2); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
}

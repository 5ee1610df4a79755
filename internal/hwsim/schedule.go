package hwsim

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
// ValidateKeySwitchSchedule checks an event sequence against these
// rules; the tests feed it the per-op events extracted from the cycle
// model's Gantt segments. (The software key switch, ckks/schedule.go,
// joins between its INTT, MAC and flooring passes, so it satisfies the
// rules by construction and has no trace to check.)

import (
	"fmt"
	"sort"
)

// SchedEventKind labels one schedule event.
type SchedEventKind uint8

const (
	// SchedINTT is the completion of a digit's INTT stage.
	SchedINTT SchedEventKind = iota
	// SchedTile is the start of a (digit, target) convert+MAC tile.
	SchedTile
	// SchedFloor is the start of the modulus-switching tail.
	SchedFloor
)

// SchedEvent is one schedule observation in global order Seq. For tiles,
// Row is the target accumulator row; Row == Digit marks the diagonal
// tile, and Row < 0 a cross tile whose target is unknown (the cycle
// model's Gantt trace does not record targets).
type SchedEvent struct {
	Kind  SchedEventKind
	Digit int
	Row   int
	Seq   int
}

// ValidateKeySwitchSchedule checks one key-switch's schedule against the
// pipeline dependency rules for `digits` decomposition digits and `rows`
// tiles per digit (k+1 in the full-level hardware model).
func ValidateKeySwitchSchedule(events []SchedEvent, digits, rows int) error {
	sorted := append([]SchedEvent(nil), events...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Seq < sorted[j].Seq })

	inttDone := make([]bool, digits)
	inttCount := 0
	tileCount := make([]int, digits)
	totalTiles := 0
	floorSeen := false
	for _, e := range sorted {
		if e.Digit >= digits || (e.Kind != SchedFloor && e.Digit < 0) {
			return fmt.Errorf("hwsim: event digit %d out of range [0,%d)", e.Digit, digits)
		}
		switch e.Kind {
		case SchedINTT:
			if floorSeen {
				return fmt.Errorf("hwsim: INTT of digit %d after modulus switching began", e.Digit)
			}
			if inttDone[e.Digit] {
				return fmt.Errorf("hwsim: duplicate INTT completion for digit %d", e.Digit)
			}
			inttDone[e.Digit] = true
			inttCount++
		case SchedTile:
			if floorSeen {
				return fmt.Errorf("hwsim: tile (%d,%d) after modulus switching began", e.Digit, e.Row)
			}
			if e.Row != e.Digit && !inttDone[e.Digit] {
				return fmt.Errorf("hwsim: cross tile (%d,%d) started before digit %d INTT completed",
					e.Digit, e.Row, e.Digit)
			}
			tileCount[e.Digit]++
			totalTiles++
		case SchedFloor:
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

// PipelineSchedEvents extracts the schedule events of one KeySwitch
// operation from a traced cycle-model run (SimulateKeySwitchPipeline
// with trace enabled): INTT0 completions, DyadMult tile starts (Dyad.in
// is the digit-diagonal tile), and the first modulus-switching segment.
// Events are ordered by cycle time, INTT completions winning ties so
// that a tile admitted the same cycle its dependency retires validates.
func PipelineSchedEvents(rep PipelineReport, op int) []SchedEvent {
	type timed struct {
		ev   SchedEvent
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
			evs = append(evs, timed{SchedEvent{Kind: SchedINTT, Digit: s.Digit, Row: -1}, s.End})
		case s.Module == "Dyad.in":
			// The input-poly dyad: the diagonal tile (needs no NTT0).
			evs = append(evs, timed{SchedEvent{Kind: SchedTile, Digit: s.Digit, Row: s.Digit}, s.Start})
		case len(s.Module) >= 5 && s.Module[:5] == "Dyad.":
			evs = append(evs, timed{SchedEvent{Kind: SchedTile, Digit: s.Digit, Row: -1}, s.Start})
		case s.Module == "INTT1.0" || s.Module == "INTT1.1":
			if floorStart < 0 || s.Start < floorStart {
				floorStart = s.Start
			}
		}
	}
	if floorStart >= 0 {
		evs = append(evs, timed{SchedEvent{Kind: SchedFloor, Digit: -1, Row: -1}, floorStart})
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].time != evs[j].time {
			return evs[i].time < evs[j].time
		}
		return evs[i].ev.Kind < evs[j].ev.Kind
	})
	out := make([]SchedEvent, len(evs))
	for i, e := range evs {
		e.ev.Seq = i
		out[i] = e.ev
	}
	return out
}

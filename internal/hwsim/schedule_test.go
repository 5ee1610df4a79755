package hwsim

import (
	"testing"

	"heax/internal/core"
)

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
			events := PipelineSchedEvents(rep, op)
			if err := ValidateKeySwitchSchedule(events, set.K, set.K+1); err != nil {
				t.Fatalf("%s/%s op %d: pipeline model schedule invalid: %v",
					cfg.Board, cfg.Set, op, err)
			}
		}
	}
}

// The validator must actually reject broken schedules.
func TestValidateKeySwitchScheduleRejects(t *testing.T) {
	// Cross tile before its digit's INTT.
	bad := []SchedEvent{
		{Kind: SchedTile, Digit: 0, Row: 1, Seq: 0},
		{Kind: SchedINTT, Digit: 0, Row: -1, Seq: 1},
		{Kind: SchedTile, Digit: 0, Row: 0, Seq: 2},
	}
	if err := ValidateKeySwitchSchedule(bad, 1, 2); err == nil {
		t.Fatal("early cross tile not rejected")
	}
	// Diagonal tile before INTT is fine, but missing tiles are not.
	incomplete := []SchedEvent{
		{Kind: SchedTile, Digit: 0, Row: 0, Seq: 0},
		{Kind: SchedINTT, Digit: 0, Row: -1, Seq: 1},
	}
	if err := ValidateKeySwitchSchedule(incomplete, 1, 2); err == nil {
		t.Fatal("missing tiles not rejected")
	}
	// Tile after the modulus-switching tail began.
	late := []SchedEvent{
		{Kind: SchedINTT, Digit: 0, Row: -1, Seq: 0},
		{Kind: SchedTile, Digit: 0, Row: 0, Seq: 1},
		{Kind: SchedFloor, Digit: -1, Row: -1, Seq: 2},
		{Kind: SchedTile, Digit: 0, Row: 1, Seq: 3},
	}
	if err := ValidateKeySwitchSchedule(late, 1, 2); err == nil {
		t.Fatal("tile after floor not rejected")
	}
	// A correct minimal schedule passes.
	good := []SchedEvent{
		{Kind: SchedTile, Digit: 0, Row: 0, Seq: 0},
		{Kind: SchedINTT, Digit: 0, Row: -1, Seq: 1},
		{Kind: SchedTile, Digit: 0, Row: 1, Seq: 2},
		{Kind: SchedFloor, Digit: -1, Row: -1, Seq: 3},
	}
	if err := ValidateKeySwitchSchedule(good, 1, 2); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
}

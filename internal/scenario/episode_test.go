package scenario_test

// Episode tests pin the multi-round determinism contract: an R-round
// adaptive episode is bit-identical at any worker count, every round is
// re-runnable standalone from its recorded seed and parameters, and a
// round sharded across workers merges back to the same bytes the episode
// produced — which is what lets the cluster coordinator shard within
// rounds while the adaptive policy plays across them.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"hitl/internal/scenario"
	_ "hitl/internal/scenario/all"
	"hitl/internal/sim"
)

func adaptiveSpec() scenario.Spec {
	return scenario.Spec{
		Scenario: "phishing-adaptive-campaign",
		N:        300,
		Seed:     21,
		Rounds:   3,
		Adapt: &scenario.AdaptSpec{
			Policy: "phish-escalation",
			Params: map[string]float64{"target": 0.12, "gain": 1.5, "lookalike": 0.1, "volume": 0.25},
		},
		Params: map[string]any{"warning": "firefox-active", "days": 15},
	}
}

func TestEpisodeDeterministicAcrossWorkers(t *testing.T) {
	spec := adaptiveSpec()
	base := runSpec(t, spec, 1)
	if len(base.Rounds) != spec.Rounds {
		t.Fatalf("%d round summaries, want %d", len(base.Rounds), spec.Rounds)
	}
	if len(base.Points) != spec.Rounds {
		t.Fatalf("%d points, want one per round", len(base.Points))
	}
	for r, sum := range base.Rounds {
		if sum.Round != r {
			t.Errorf("round %d recorded as %d", r, sum.Round)
		}
		if want := sim.RoundSeed(spec.Seed, r); sum.Seed != want {
			t.Errorf("round %d seed %d, want RoundSeed %d", r, sum.Seed, want)
		}
		if len(sum.Params) == 0 {
			t.Errorf("round %d recorded no policy params", r)
		}
		if wantLabel := fmt.Sprintf("round-%d firefox-active", r); base.Points[r].Label != wantLabel {
			t.Errorf("point %d label %q, want %q", r, base.Points[r].Label, wantLabel)
		}
	}
	// The attacker must actually adapt: round 1's knobs differ from round 0's.
	if reflect.DeepEqual(base.Rounds[0].Params, base.Rounds[1].Params) {
		t.Error("adaptive policy left parameters unchanged between rounds")
	}
	for _, workers := range []int{4, runtime.NumCPU()} {
		got := runSpec(t, spec, workers)
		if !reflect.DeepEqual(base, got) {
			t.Errorf("episode differs between workers=1 and workers=%d", workers)
		}
	}
}

// TestEpisodeRoundStandaloneRerun re-runs each recorded round as an
// ordinary round-free spec — RoundSpec with the recorded policy overrides
// — and requires the standalone run to reproduce the in-episode round bit
// for bit.
func TestEpisodeRoundStandaloneRerun(t *testing.T) {
	spec := adaptiveSpec()
	norm, err := scenario.Normalize(spec)
	if err != nil {
		t.Fatal(err)
	}
	full := runSpec(t, spec, 0)
	for r, sum := range full.Rounds {
		rspec, err := scenario.RoundSpec(norm, r, sum.Params)
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if rspec.Rounds != 0 || rspec.Adapt != nil {
			t.Fatalf("round %d spec still episodic", r)
		}
		if rspec.Seed != sum.Seed {
			t.Fatalf("round %d spec seed %d, want recorded %d", r, rspec.Seed, sum.Seed)
		}
		alone, err := scenario.Run(context.Background(), rspec)
		if err != nil {
			t.Fatalf("round %d standalone: %v", r, err)
		}
		want := append([]scenario.Point(nil), alone.Points...)
		for i := range want {
			want[i].Label = fmt.Sprintf("round-%d %s", r, want[i].Label)
		}
		if !reflect.DeepEqual(want, full.Points[r:r+1]) {
			t.Errorf("round %d standalone points differ from the episode's", r)
		}
		if got := alone.Metrics(); !reflect.DeepEqual(got, sum.Values) {
			t.Errorf("round %d standalone metrics %v, want recorded aggregate %v", r, got, sum.Values)
		}
	}
}

// TestRunEpisodeRoundErrorStopsEpisode drives the episode loop with a
// round function that fails at round 2 of 5: the loop must stop there
// (rounds 0-2 ran, nothing after), name the failed round in an error that
// wraps the round's own, and return no partial result.
func TestRunEpisodeRoundErrorStopsEpisode(t *testing.T) {
	spec := adaptiveSpec()
	spec.Rounds = 5
	norm, err := scenario.Normalize(spec)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	var seeds []int64
	observed := 0
	res, err := scenario.RunEpisode(context.Background(), norm,
		func(done, total int, pts []scenario.Point) { observed++ },
		func(ctx context.Context, rspec scenario.Spec) (*scenario.Result, error) {
			seeds = append(seeds, rspec.Seed)
			if len(seeds) == 3 {
				return nil, boom
			}
			return scenario.Run(ctx, rspec)
		})
	if res != nil {
		t.Errorf("result = %+v, want nil after a failed round", res)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want it to wrap the round's error", err)
	}
	if !strings.Contains(err.Error(), "round 2") {
		t.Errorf("err = %q, want it to name round 2", err)
	}
	want := []int64{sim.RoundSeed(norm.Seed, 0), sim.RoundSeed(norm.Seed, 1), sim.RoundSeed(norm.Seed, 2)}
	if !reflect.DeepEqual(seeds, want) {
		t.Errorf("rounds ran with seeds %v, want rounds 0-2 %v", seeds, want)
	}
	if observed != 2 {
		t.Errorf("observer fired %d times, want once per completed round (2)", observed)
	}
}

// TestEpisodeRoundsShardAndMerge shards each recorded round spec and
// merges it back: within-round sharding must reproduce the episode's
// rounds exactly, even though the episode itself cannot be sharded.
func TestEpisodeRoundsShardAndMerge(t *testing.T) {
	spec := adaptiveSpec()
	norm, err := scenario.Normalize(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := scenario.ShardSpecs(spec, 2); err == nil {
		t.Fatal("sharding an episodic spec: want error")
	}
	full := runSpec(t, spec, 0)
	for r, sum := range full.Rounds {
		rspec, err := scenario.RoundSpec(norm, r, sum.Params)
		if err != nil {
			t.Fatal(err)
		}
		merged := runShards(t, rspec, 3)
		if got := merged.Metrics(); !reflect.DeepEqual(got, sum.Values) {
			t.Errorf("round %d sharded merge metrics %v, want %v", r, got, sum.Values)
		}
	}
}

func TestEpisodeSpecValidation(t *testing.T) {
	cases := []struct {
		name  string
		mut   func(*scenario.Spec)
		field string
	}{
		{"negative rounds", func(s *scenario.Spec) { s.Rounds = -1 }, "rounds"},
		{"adapt without rounds", func(s *scenario.Spec) { s.Rounds = 0 }, "adapt"},
		{"unknown policy", func(s *scenario.Spec) { s.Adapt.Policy = "no-such-policy" }, "adapt.policy"},
		{"rounds with sweep", func(s *scenario.Spec) {
			s.Adapt = nil
			s.Sweep = &scenario.Axis{Param: "days", Values: []float64{10, 20}}
		}, "sweep"},
		{"rounds with offset", func(s *scenario.Spec) { s.Adapt = nil; s.Offset = 5 }, "offset"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := adaptiveSpec()
			tc.mut(&spec)
			_, err := scenario.Normalize(spec)
			var se *scenario.SpecError
			if !errors.As(err, &se) {
				t.Fatalf("want SpecError, got %v", err)
			}
			if se.Field != tc.field {
				t.Errorf("error field %q, want %q", se.Field, tc.field)
			}
		})
	}

	// A round-free spec is untouched by episode normalization.
	plain := adaptiveSpec()
	plain.Rounds = 0
	plain.Adapt = nil
	if _, err := scenario.Normalize(plain); err != nil {
		t.Fatalf("round-free spec: %v", err)
	}
}

// TestEpisodeDigestUnchangedForRoundFreeSpecs pins the wire-compat
// guarantee: adding the rounds/adapt schema must not move any existing
// round-free spec's canonical digest, and the episodic fields must move it.
func TestEpisodeDigestUnchangedForRoundFreeSpecs(t *testing.T) {
	plain := scenario.Spec{Scenario: "phishing-campaign", N: 300, Seed: 21,
		Params: map[string]any{"warning": "firefox-active", "days": 15}}
	base, err := scenario.Canonical(plain)
	if err != nil {
		t.Fatal(err)
	}
	episodic := adaptiveSpec()
	epDigest, err := scenario.Canonical(episodic)
	if err != nil {
		t.Fatal(err)
	}
	if base == epDigest {
		t.Error("episodic spec digest equals a round-free digest")
	}
	more := episodic
	more.Rounds = 4
	moreDigest, err := scenario.Canonical(more)
	if err != nil {
		t.Fatal(err)
	}
	if moreDigest == epDigest {
		t.Error("round count not reflected in the canonical digest")
	}
}

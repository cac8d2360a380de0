package sim

// This file holds the engine-level vocabulary of multi-round episodes: a
// deterministic game between an adapting attacker and the simulated
// population. Each round is one ordinary engine run — bit-identical at any
// worker count, shardable within the round through the
// WithSubjectOffset/MergeResults contract — and the only state that
// crosses rounds is the aggregate summaries the policy sees. The loop that
// sequences the rounds lives in the scenario layer (scenario.RunEpisode).

// RoundParams is the attacker-controlled parameter overrides for one
// round, keyed by scenario parameter name.
type RoundParams map[string]float64

// RoundAggregate is what one completed round exposes to the adaptive
// policy (and to reports): its index, the derived seed it ran under, the
// parameter overrides it ran with, and the aggregate metrics it produced.
// No per-subject state crosses the round boundary — that is what keeps
// rounds individually shardable and re-runnable.
type RoundAggregate struct {
	Round  int                `json:"round"`
	Seed   int64              `json:"seed"`
	Params RoundParams        `json:"params,omitempty"`
	Values map[string]float64 `json:"values,omitempty"`
}

// AdaptivePolicy produces round r's parameter overrides from the history
// of rounds 0..r-1. It MUST be a pure function of its arguments: the
// round index and the previous rounds' aggregates (round 0 sees an empty
// history). Any randomness must come from deriving on RoundSeed — never
// from ambient state — so that an episode is deterministic from its
// master seed and any round can be reproduced standalone.
type AdaptivePolicy func(round int, prev []RoundAggregate) RoundParams

// RoundSeed derives round r's engine seed from the episode's master seed.
// Scenario sweep steps offset the master seed additively (Seed + i*stride,
// with the per-parameter strides and scenario.DefaultSweepStride); round
// seeds instead go through splitmix64 at index 2_000_003+r, so they do not
// line up with the sweep steps of the same master seed. The stride is part
// of every recorded episode's identity: changing it would change every
// round seed, so it stays fixed.
func RoundSeed(seed int64, round int) int64 {
	return splitmix64(seed, 2_000_003+round)
}

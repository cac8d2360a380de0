package sim

import (
	"math/rand"
	"testing"
)

// TestJumpSourceMatchesStdlib locks down the engine's core determinism
// claim: the lazily-materialized jump source produces exactly the stream of
// rand.NewSource at every seed, across state-cycle wrap-around (where
// half-materialized state words meet written-back ones) and across
// re-seeding, so per-worker re-seeding reproduces SubjectRand's streams
// bit-for-bit.
func TestJumpSourceMatchesStdlib(t *testing.T) {
	seeds := []int64{0, 1, -1, 89482311, 20080124, 1 << 40, -(1 << 40), int64(^uint64(0) >> 1), -int64(^uint64(0)>>1) - 1}
	pick := rand.New(rand.NewSource(54321))
	for i := 0; i < 50; i++ {
		seeds = append(seeds, pick.Int63()-pick.Int63())
	}

	jump := &jumpSource{}
	for _, seed := range seeds {
		std := rand.NewSource(seed).(rand.Source64)
		jump.Seed(seed)
		// Short prefixes are the production shape (a subject consumes a few
		// dozen draws); 2000 draws also cover three full state wraps so the
		// feedback writes interleave with on-demand materialization.
		for i := 0; i < 2000; i++ {
			if got, want := jump.Uint64(), std.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: jumpSource.Uint64() = %d, stdlib = %d", seed, i, got, want)
			}
		}
	}

	// Derived draws through rand.New, as scenarios consume them.
	for _, seed := range seeds[:8] {
		jump.Seed(seed)
		a := rand.New(jump)
		b := rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			if x, y := a.Float64(), b.Float64(); x != y {
				t.Fatalf("seed %d draw %d: Float64 %v != %v", seed, i, x, y)
			}
			if x, y := a.NormFloat64(), b.NormFloat64(); x != y {
				t.Fatalf("seed %d draw %d: NormFloat64 %v != %v", seed, i, x, y)
			}
			if x, y := a.Intn(97), b.Intn(97); x != y {
				t.Fatalf("seed %d draw %d: Intn %d != %d", seed, i, x, y)
			}
		}
	}

	// Re-seeding after a partial and after a wrapped stream must both be
	// indistinguishable from a fresh source: stale valid bits or vec words
	// from the prior seed may not leak.
	for _, used := range []int{3, 1000} {
		jump.Seed(7)
		for i := 0; i < used; i++ {
			jump.Uint64()
		}
		jump.Seed(42)
		std := rand.NewSource(42).(rand.Source64)
		for i := 0; i < 1000; i++ {
			if got, want := jump.Uint64(), std.Uint64(); got != want {
				t.Fatalf("re-seeded (after %d draws) draw %d: %d != %d", used, i, got, want)
			}
		}
	}

}

// TestSubjectRandMatchesStdlib pins the replay contract: SubjectRand(seed,
// i) is the stream rand.New(rand.NewSource(splitmix64(seed, i))), so one
// subject of any run can be reproduced with the standard library alone.
func TestSubjectRandMatchesStdlib(t *testing.T) {
	for _, seed := range []int64{0, 1, 7, 20080124, -(1 << 40)} {
		for _, i := range []int{0, 1, 2, 999, 123456} {
			got := SubjectRand(seed, i)
			want := rand.New(rand.NewSource(splitmix64(seed, i)))
			for d := 0; d < 200; d++ {
				if x, y := got.Float64(), want.Float64(); x != y {
					t.Fatalf("seed %d subject %d draw %d: Float64 %v != %v", seed, i, d, x, y)
				}
				if x, y := got.Intn(1000), want.Intn(1000); x != y {
					t.Fatalf("seed %d subject %d draw %d: Intn %d != %d", seed, i, d, x, y)
				}
			}
		}
	}
}

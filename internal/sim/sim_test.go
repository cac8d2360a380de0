package sim

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"hitl/internal/agent"
	"hitl/internal/comms"
	"hitl/internal/gems"
	"hitl/internal/population"
	"hitl/internal/stimuli"
)

// coinFlip is a trivial scenario: heed with probability p, else fail at
// attention switch.
func coinFlip(p float64) SubjectFunc {
	return func(rng *rand.Rand, _ int) (Outcome, error) {
		if rng.Float64() < p {
			return Outcome{Heeded: true, FailedStage: agent.StageNone}, nil
		}
		return Outcome{FailedStage: agent.StageAttentionSwitch}, nil
	}
}

func TestRunBasics(t *testing.T) {
	res, err := Runner{Seed: 1, N: 10000}.Run(context.Background(), coinFlip(0.3))
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 10000 || res.Heed.Trials != 10000 {
		t.Fatalf("N bookkeeping wrong: %+v", res.Heed)
	}
	r := res.HeedRate()
	if r < 0.27 || r > 0.33 {
		t.Errorf("heed rate %v far from 0.3", r)
	}
	if res.StageFailures[agent.StageAttentionSwitch] != res.N-res.Heed.Successes {
		t.Error("failure histogram inconsistent with heed count")
	}
	if share := res.FailureShare(agent.StageAttentionSwitch); share != 1 {
		t.Errorf("all failures at attention switch: share = %v, want 1", share)
	}
	stage, n, ok := res.TopFailureStage()
	if !ok || stage != agent.StageAttentionSwitch || n == 0 {
		t.Errorf("TopFailureStage = %v, %d, %v", stage, n, ok)
	}
}

func TestRunDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) *Result {
		res, err := Runner{Seed: 42, N: 2000, Workers: workers}.Run(context.Background(), coinFlip(0.5))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	parallel := run(8)
	if serial.Heed != parallel.Heed {
		t.Errorf("results differ across worker counts: %+v vs %+v", serial.Heed, parallel.Heed)
	}
	if !reflect.DeepEqual(serial.StageFailures, parallel.StageFailures) {
		t.Error("stage failure histograms differ across worker counts")
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := (Runner{Seed: 1, N: 0}).Run(context.Background(), coinFlip(0.5)); err == nil {
		t.Error("N=0: want error")
	}
	if _, err := (Runner{Seed: 1, N: 5}).Run(context.Background(), nil); err == nil {
		t.Error("nil func: want error")
	}
	boom := errors.New("boom")
	_, err := Runner{Seed: 1, N: 5}.Run(context.Background(), func(*rand.Rand, int) (Outcome, error) {
		return Outcome{}, boom
	})
	if !errors.Is(err, boom) {
		t.Errorf("subject error not propagated: %v", err)
	}
}

func TestValuesAggregation(t *testing.T) {
	res, err := Runner{Seed: 3, N: 100}.Run(context.Background(), func(rng *rand.Rand, i int) (Outcome, error) {
		return Outcome{
			Heeded:      true,
			FailedStage: agent.StageNone,
			Values:      map[string]float64{"x": float64(i % 2)},
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	mean, half, err := res.MeanValue("x")
	if err != nil {
		t.Fatal(err)
	}
	if mean != 0.5 {
		t.Errorf("mean = %v, want 0.5", mean)
	}
	if half <= 0 {
		t.Errorf("CI half-width = %v, want > 0", half)
	}
	if _, _, err := res.MeanValue("missing"); err == nil {
		t.Error("missing metric: want error")
	}
}

func TestFromAgentResult(t *testing.T) {
	ar := agent.Result{
		Heeded:        false,
		FailedStage:   agent.StageCapabilities,
		ErrorClass:    gems.NoError,
		Spoofed:       true,
		HeuristicPath: true,
	}
	o := FromAgentResult(ar)
	if o.Heeded || o.FailedStage != agent.StageCapabilities || !o.Spoofed || !o.HeuristicPath {
		t.Errorf("conversion lost fields: %+v", o)
	}
}

func TestRunCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	called := false
	_, err := Runner{Seed: 1, N: 100}.Run(ctx, func(*rand.Rand, int) (Outcome, error) {
		called = true
		return Outcome{Heeded: true}, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if called {
		t.Error("subject function ran under an already-canceled context")
	}
}

func TestRunCancelMidFlight(t *testing.T) {
	// A context-aware subject function: the first subject cancels the run,
	// then every subject blocks until cancellation is visible. Run must
	// return context.Canceled promptly instead of simulating all N.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var simulated atomic.Int64
	start := time.Now()
	_, err := Runner{Seed: 1, N: 1_000_000, Workers: 4}.Run(ctx, func(_ *rand.Rand, i int) (Outcome, error) {
		simulated.Add(1)
		cancel()
		<-ctx.Done()
		return Outcome{Heeded: true}, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Each worker finishes at most the subject it was on plus one more it
	// may have claimed before observing cancellation.
	if n := simulated.Load(); n > 8 {
		t.Errorf("simulated %d subjects after cancel, want <= 8", n)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("cancellation took %v, want prompt return", d)
	}
}

// Integration: run the agent pipeline under the sim engine.
func TestRunAgentScenario(t *testing.T) {
	spec := population.GeneralPublic()
	enc := agent.Encounter{
		Comm:          comms.FirefoxActiveWarning(),
		Env:           stimuli.Busy(),
		HazardPresent: true,
		Task:          gems.LeaveSuspiciousSite(),
	}
	res, err := Runner{Seed: 11, N: 3000}.Run(context.Background(), func(rng *rand.Rand, i int) (Outcome, error) {
		r := agent.NewReceiver(spec.Sample(rng))
		ar, err := r.Process(rng, enc)
		if err != nil {
			return Outcome{}, err
		}
		return FromAgentResult(ar), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rate := res.HeedRate(); rate < 0.5 {
		t.Errorf("firefox warning heed rate %v under sim engine, want >= 0.5", rate)
	}
	if len(res.SortedStages()) == 0 {
		t.Error("expected some failures across 3000 subjects")
	}
}

func TestSortedStagesOrdered(t *testing.T) {
	res, err := Runner{Seed: 13, N: 100}.Run(context.Background(), func(rng *rand.Rand, i int) (Outcome, error) {
		stages := []agent.Stage{agent.StageBehavior, agent.StageDelivery, agent.StageMotivation}
		return Outcome{FailedStage: stages[i%3]}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got := res.SortedStages()
	want := []agent.Stage{agent.StageDelivery, agent.StageMotivation, agent.StageBehavior}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SortedStages = %v, want %v", got, want)
	}
}

// valuesScenario emits a per-subject metric so Values ordering is
// observable: subject i records "idx" = i alongside a seeded coin flip.
func valuesScenario(rng *rand.Rand, i int) (Outcome, error) {
	out := Outcome{Values: map[string]float64{"idx": float64(i), "draw": rng.Float64()}}
	if rng.Float64() < 0.5 {
		out.Heeded = true
		out.FailedStage = agent.StageNone
	} else {
		out.FailedStage = agent.StageMotivation
	}
	return out, nil
}

// TestResultBitIdenticalAcrossWorkers locks the sharded-aggregation
// determinism contract: the full Result — including the subject order of
// every Values series — is bit-for-bit identical for any worker count.
func TestResultBitIdenticalAcrossWorkers(t *testing.T) {
	workerCounts := []int{1, 3, runtime.GOMAXPROCS(0)}
	results := make([]*Result, len(workerCounts))
	for wi, workers := range workerCounts {
		res, err := Runner{Seed: 1234, N: 600, Workers: workers}.Run(context.Background(), valuesScenario)
		if err != nil {
			t.Fatal(err)
		}
		results[wi] = res
	}
	// Values must come back in subject order regardless of which worker
	// ran which subject.
	for wi, res := range results {
		idx := res.Values["idx"]
		if len(idx) != 600 {
			t.Fatalf("workers=%d: %d idx observations, want 600", workerCounts[wi], len(idx))
		}
		for i, v := range idx {
			if v != float64(i) {
				t.Fatalf("workers=%d: idx[%d] = %v, want %v (subject order broken)", workerCounts[wi], i, v, i)
			}
		}
	}
	for wi := 1; wi < len(results); wi++ {
		if !reflect.DeepEqual(results[0], results[wi]) {
			t.Errorf("Result differs between workers=%d and workers=%d:\n%+v\nvs\n%+v",
				workerCounts[0], workerCounts[wi], results[0], results[wi])
		}
	}
}

// TestRunAgentBitIdenticalAcrossWorkers runs the real receiver pipeline —
// where each subject consumes a profile-dependent number of random draws —
// and requires identical Results at every worker count.
func TestRunAgentBitIdenticalAcrossWorkers(t *testing.T) {
	pop := population.GeneralPublic()
	scenario := func(rng *rand.Rand, i int) (Outcome, error) {
		r := agent.NewReceiver(pop.Sample(rng))
		ar, err := r.Process(rng, agent.Encounter{
			Comm:          comms.FirefoxActiveWarning(),
			Env:           stimuli.Busy(),
			HazardPresent: true,
			Task:          gems.LeaveSuspiciousSite(),
		})
		if err != nil {
			return Outcome{}, err
		}
		return FromAgentResult(ar), nil
	}
	var base *Result
	for _, workers := range []int{1, 3, runtime.GOMAXPROCS(0)} {
		res, err := Runner{Seed: 20080124, N: 400, Workers: workers}.Run(context.Background(), scenario)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res
			continue
		}
		if !reflect.DeepEqual(base, res) {
			t.Errorf("agent-pipeline Result differs at workers=%d", workers)
		}
	}
}

package sim

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"hitl/internal/agent"
	"hitl/internal/comms"
	"hitl/internal/gems"
	"hitl/internal/population"
	"hitl/internal/stimuli"
	"hitl/internal/telemetry"
)

// agentPipeline is the standard full-pipeline subject function used by the
// telemetry tests and benchmarks: a general-public receiver facing a
// blocking Firefox warning. It exercises the allocation-free hot path:
// receivers come from a pool and are Reset per subject, and no trace is
// collected.
func agentPipeline() SubjectFunc {
	spec := population.GeneralPublic()
	enc := agent.Encounter{
		Comm:          comms.FirefoxActiveWarning(),
		Env:           stimuli.Busy(),
		HazardPresent: true,
		Task:          gems.LeaveSuspiciousSite(),
	}
	pool := sync.Pool{New: func() any { return &agent.Receiver{} }}
	return func(rng *rand.Rand, _ int) (Outcome, error) {
		r := pool.Get().(*agent.Receiver)
		r.Reset(spec.Sample(rng))
		ar, err := r.Process(rng, enc)
		pool.Put(r)
		if err != nil {
			return Outcome{}, err
		}
		return FromAgentResult(ar), nil
	}
}

// tracedAgentPipeline is agentPipeline with per-subject trace collection
// enabled, for tests that inspect Outcome.Trace or feed a recorder.
func tracedAgentPipeline() SubjectFunc {
	spec := population.GeneralPublic()
	enc := agent.Encounter{
		Comm:          comms.FirefoxActiveWarning(),
		Env:           stimuli.Busy(),
		HazardPresent: true,
		Task:          gems.LeaveSuspiciousSite(),
	}
	pool := sync.Pool{New: func() any { return &agent.Receiver{CollectTrace: true} }}
	return func(rng *rand.Rand, _ int) (Outcome, error) {
		r := pool.Get().(*agent.Receiver)
		r.Reset(spec.Sample(rng))
		ar, err := r.Process(rng, enc)
		pool.Put(r)
		if err != nil {
			return Outcome{}, err
		}
		return FromAgentResult(ar), nil
	}
}

// TestTracingDoesNotPerturbDeterminism is the tentpole's core guarantee: a
// run with a recorder and tracer attached must return a bit-identical
// Result to the same run with telemetry disabled.
func TestTracingDoesNotPerturbDeterminism(t *testing.T) {
	runner := Runner{Seed: 20080124, N: 2000, Workers: 8}

	plain, err := runner.Run(context.Background(), agentPipeline())
	if err != nil {
		t.Fatal(err)
	}

	rec := telemetry.NewRecorder(64, 99)
	ctx := telemetry.WithRecorder(context.Background(), rec)
	ctx = telemetry.WithTracer(ctx, telemetry.NewTracer(nil))
	traced, err := runner.Run(ctx, tracedAgentPipeline())
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(plain, traced) {
		t.Fatalf("traced run diverged from untraced run:\nplain:  %+v\ntraced: %+v", plain, traced)
	}
	if got := len(rec.Traces()); got != 64 {
		t.Errorf("recorder kept %d traces, want 64", got)
	}
	if rec.Offered() != 2000 {
		t.Errorf("recorder was offered %d subjects, want 2000", rec.Offered())
	}
}

// TestTraceSampleDeterministicAcrossWorkers: the sampled subject set must
// not depend on scheduling.
func TestTraceSampleDeterministicAcrossWorkers(t *testing.T) {
	sample := func(workers int) []telemetry.SubjectTrace {
		rec := telemetry.NewRecorder(16, 7)
		ctx := telemetry.WithRecorder(context.Background(), rec)
		if _, err := (Runner{Seed: 11, N: 1000, Workers: workers}).Run(ctx, tracedAgentPipeline()); err != nil {
			t.Fatal(err)
		}
		return rec.Traces()
	}
	serial, parallel := sample(1), sample(8)
	if len(serial) != 16 {
		t.Fatalf("sampled %d traces, want 16", len(serial))
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("sampled trace set depends on worker count")
	}
}

// TestSampledTraceContents: a sampled trace must answer "why did this
// subject fail": stage checks with probabilities, routing flags, and the
// failed stage.
func TestSampledTraceContents(t *testing.T) {
	rec := telemetry.NewRecorder(50, 3)
	ctx := telemetry.WithRecorder(context.Background(), rec)
	if _, err := (Runner{Seed: 5, N: 500}).Run(ctx, tracedAgentPipeline()); err != nil {
		t.Fatal(err)
	}
	traces := rec.Traces()
	if len(traces) != 50 {
		t.Fatalf("got %d traces", len(traces))
	}
	sawFailure := false
	for _, tr := range traces {
		if tr.Seed != 5 {
			t.Fatalf("trace seed = %d, want 5", tr.Seed)
		}
		if len(tr.Checks) == 0 {
			t.Fatalf("subject %d trace has no stage checks", tr.Subject)
		}
		if tr.Checks[0].Stage != agent.StageDelivery.String() {
			t.Errorf("first check = %q, want delivery", tr.Checks[0].Stage)
		}
		for _, c := range tr.Checks {
			if c.P < 0 || c.P > 1 {
				t.Errorf("check %q has probability %v outside [0,1]", c.Stage, c.P)
			}
		}
		if !tr.Heeded {
			sawFailure = true
			if tr.FailedStage == "" {
				t.Errorf("failed subject %d has empty failed_stage", tr.Subject)
			}
			last := tr.Checks[len(tr.Checks)-1]
			if last.Passed {
				t.Errorf("failed subject %d ends with a passed check", tr.Subject)
			}
		}
	}
	if !sawFailure {
		t.Error("no failures in 50 sampled subjects; sample suspiciously clean")
	}
}

// TestRunFirstErrorCancelsRemainingWork: one fatal subject error must stop
// the whole run instead of simulating all N remaining subjects.
func TestRunFirstErrorCancelsRemainingWork(t *testing.T) {
	boom := errors.New("boom")
	var simulated atomic.Int64
	const n = 100_000
	_, err := Runner{Seed: 1, N: n, Workers: 4}.Run(context.Background(),
		func(_ *rand.Rand, i int) (Outcome, error) {
			simulated.Add(1)
			if i == 0 {
				return Outcome{}, boom
			}
			return Outcome{Heeded: true}, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the subject error", err)
	}
	// Workers stop at the next dequeue after the cancel; allow generous
	// scheduling slack but far below N.
	if got := simulated.Load(); got > n/10 {
		t.Errorf("simulated %d of %d subjects after a fatal error; cancellation not working", got, n)
	}
}

// TestRunSpans: spans arrive with the expected hierarchy and attributes.
func TestRunSpans(t *testing.T) {
	tr := telemetry.NewTracer(nil)
	ctx := telemetry.WithTracer(context.Background(), tr)
	if _, err := (Runner{Seed: 2, N: 200, Workers: 4}).Run(ctx, agentPipeline()); err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	var run *telemetry.SpanRecord
	workers := 0
	for i := range spans {
		switch spans[i].Name {
		case "run":
			run = &spans[i]
		case "worker-batch":
			workers++
		}
	}
	if run == nil {
		t.Fatal("no run span recorded")
	}
	// A request for 4 workers is clamped to the scheduler's parallelism;
	// the span records the count the run actually used.
	want := EffectiveWorkers(4, 200)
	if run.Attrs["n"] != "200" || run.Attrs["workers"] != strconv.Itoa(want) || run.Attrs["seed"] != "2" {
		t.Errorf("run span attrs = %v (want workers=%d)", run.Attrs, want)
	}
	if workers != want {
		t.Errorf("got %d worker-batch spans, want %d", workers, want)
	}
	for _, s := range spans {
		if s.Name == "worker-batch" && s.Parent != run.ID {
			t.Errorf("worker-batch span parented to %d, want run span %d", s.Parent, run.ID)
		}
	}
}

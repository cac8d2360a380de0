package sim

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"hitl/internal/agent"
)

func TestReportCollectorCapturesRun(t *testing.T) {
	col := NewReportCollector()
	ctx := WithReportCollector(context.Background(), col)
	ru := Runner{Seed: 3, N: 400, Workers: 2}
	if _, err := ru.Run(ctx, coinFlip(0.5)); err != nil {
		t.Fatal(err)
	}
	reports := col.Reports()
	if len(reports) != 1 {
		t.Fatalf("collected %d reports, want 1", len(reports))
	}
	er := reports[0]
	if er.Seed != 3 || er.N != 400 || er.Completed != 400 {
		t.Errorf("report = seed %d n %d completed %d, want 3/400/400", er.Seed, er.N, er.Completed)
	}
	if er.RequestedWorkers != 2 {
		t.Errorf("requested workers = %d, want 2", er.RequestedWorkers)
	}
	if er.EffectiveWorkers < 1 {
		t.Errorf("effective workers = %d, want >= 1", er.EffectiveWorkers)
	}
	if er.Phases.ComputeSeconds <= 0 {
		t.Errorf("compute phase = %g, want > 0", er.Phases.ComputeSeconds)
	}
	if er.StageFailures[agent.StageAttentionSwitch.String()] == 0 {
		t.Errorf("stage failures = %v, want attention-switch counts", er.StageFailures)
	}
	if er.TimedOut || er.Canceled || er.PanicRecovered || er.Error != "" {
		t.Errorf("clean run flagged: %+v", er)
	}
}

// TestReportCollectorSweepAndDeterminism runs two engine runs under one
// collector (as a two-point sweep does) and checks the collector sees
// every run with deterministic, worker-independent content.
func TestReportCollectorSweepAndDeterminism(t *testing.T) {
	sweep := func(workers int) []EngineReport {
		col := NewReportCollector()
		ctx := WithReportCollector(context.Background(), col)
		for i, p := range []float64{0.2, 0.8} {
			ru := Runner{Seed: 11 + int64(i), N: 200, Workers: workers}
			if _, err := ru.Run(ctx, coinFlip(p)); err != nil {
				t.Fatal(err)
			}
		}
		return col.Reports()
	}
	r1, r4 := sweep(1), sweep(4)
	if len(r1) != 2 || len(r4) != 2 {
		t.Fatalf("reports per sweep = %d and %d, want 2", len(r1), len(r4))
	}
	for i := range r1 {
		a, b := r1[i], r4[i]
		if a.Seed != b.Seed || a.Completed != b.Completed {
			t.Errorf("point %d differs across workers: %+v vs %+v", i, a, b)
		}
		for stage, n := range a.StageFailures {
			if b.StageFailures[stage] != n {
				t.Errorf("point %d stage %s: %d vs %d by worker count", i, stage, n, b.StageFailures[stage])
			}
		}
	}
}

func TestReportCollectorRecordsFailure(t *testing.T) {
	boom := errors.New("boom")
	col := NewReportCollector()
	ctx := WithReportCollector(context.Background(), col)
	ru := Runner{Seed: 5, N: 50}
	_, err := ru.Run(ctx, func(rng *rand.Rand, i int) (Outcome, error) { return Outcome{}, boom })
	_ = err // exercised below via the report
	reports := col.Reports()
	if len(reports) != 1 {
		t.Fatalf("collected %d reports, want 1", len(reports))
	}
	if reports[0].Error == "" {
		t.Error("failed run's report carries no error")
	}
}

func TestReportCollectorAbsentIsFree(t *testing.T) {
	if ReportCollectorFromContext(context.Background()) != nil {
		t.Fatal("collector from empty context")
	}
	// No collector attached: runs behave identically.
	if _, err := (Runner{Seed: 1, N: 10}).Run(context.Background(), coinFlip(0.5)); err != nil {
		t.Fatal(err)
	}
}

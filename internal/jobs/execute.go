package jobs

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"hitl/internal/faults"
	"hitl/internal/report"
	"hitl/internal/scenario"
	"hitl/internal/sim"
	"hitl/internal/store"
	"hitl/internal/telemetry"
)

// ExecOptions selects what one execution observes besides its result.
type ExecOptions struct {
	// Faults, when non-empty, deterministically perturbs every engine run.
	Faults *faults.Set
	// TraceSample > 0 samples that many subject traces. A recorder forces
	// the interpreted engine, so ask for one only to serve or store traces.
	TraceSample int
	// Report collects a full-fidelity RunReport.
	Report bool
	// Degraded marks a run clamped by the server's degraded mode from
	// RequestedN subjects to the spec's N.
	Degraded   bool
	RequestedN int
	// Observer receives sweep progress (see scenario.RunObserved).
	Observer scenario.Observer
}

// Execution is one executed spec. Result is nil when the run failed;
// Recorder is nil without TraceSample and Report nil without Report.
type Execution struct {
	Result   *scenario.Result
	Recorder *telemetry.Recorder
	Report   *report.RunReport
}

// Execute runs a normalized spec: the one execution path behind the sync,
// shard and job endpoints and the hitl-sim CLI. It wires the fault
// injector, trace recorder and report collector into ctx, runs the spec
// and builds the report. The Execution is returned even on error, so a
// failed run's report can explain it.
func Execute(ctx context.Context, norm scenario.Spec, opts ExecOptions) (*Execution, error) {
	exe := &Execution{}
	if !opts.Faults.Empty() {
		ctx = sim.WithInjector(ctx, opts.Faults)
	}
	if opts.TraceSample > 0 {
		exe.Recorder = telemetry.NewRecorder(opts.TraceSample, norm.Seed)
		ctx = telemetry.WithRecorder(ctx, exe.Recorder)
	}
	var col *sim.ReportCollector
	var before telemetry.MetricsSnapshot
	if opts.Report {
		// The metrics delta is exact only while this is the process's one
		// run; the deterministic fields come from the collector.
		col = sim.NewReportCollector()
		ctx = sim.WithReportCollector(ctx, col)
		before = telemetry.Snapshot()
	}

	res, err := scenario.RunObserved(ctx, norm, opts.Observer)
	exe.Result = res
	if col == nil {
		return exe, err
	}
	rep := NewReport(norm, res, col.Reports())
	if opts.Degraded {
		rep.Degraded = true
		rep.DegradedClamp = norm.N
		rep.RequestedN = opts.RequestedN
	}
	if !opts.Faults.Empty() {
		rep.FaultSpec = opts.Faults.String()
		for _, st := range opts.Faults.Stats() {
			rep.FaultRules = append(rep.FaultRules, report.FaultRule{Rule: st.Rule, Fired: st.Fired})
		}
	}
	delta := telemetry.Snapshot().Delta(before)
	rep.Engine = &delta
	exe.Report = &rep
	return exe, err
}

// NewReport is the run report builder: the engine runs folded into one
// RunReport, labelled with the spec that ran and, when the run succeeded,
// its scenario-level engine path and episode rounds. runs may be empty,
// as on a coordinator whose engine runs happened on remote workers.
func NewReport(norm scenario.Spec, res *scenario.Result, runs []sim.EngineReport) report.RunReport {
	rep := report.FromEngine(runs)
	if digest, err := scenario.Canonical(norm); err == nil {
		rep.SpecDigest = digest
	}
	rep.Scenario = norm.Scenario
	rep.Seed = norm.Seed
	rep.N = norm.N
	if res != nil {
		// The scenario-level path is authoritative: analytic runs execute
		// zero engine runs, so the collector alone cannot name them.
		rep.EnginePath = res.EnginePath
		rep.Rounds = RoundReports(res.Rounds)
	}
	return rep
}

// RoundReports converts a result's per-round summaries into the report
// section form (report deliberately doesn't import scenario).
func RoundReports(rounds []scenario.RoundSummary) []report.RoundReport {
	if len(rounds) == 0 {
		return nil
	}
	out := make([]report.RoundReport, len(rounds))
	for i, r := range rounds {
		out[i] = report.RoundReport{
			Round:      r.Round,
			Seed:       r.Seed,
			Params:     r.Params,
			Values:     r.Values,
			EnginePath: r.EnginePath,
		}
	}
	return out
}

// EncodeResult renders a completed scenario result as the persisted
// result envelope — indented JSON with a trailing newline — plus the
// store metadata (content SHA, size) addressing those bytes under id.
// It is the single encoding every result-producing path shares: job runs
// use it before persisting, and the cluster coordinator uses it to store
// merged results under the parent spec's digest, so a result computed by
// a worker pool is served byte-identically to one computed locally.
func EncodeResult(id string, res *scenario.Result, trace []telemetry.SubjectTrace) ([]byte, store.Meta, error) {
	env := ResultEnvelope{
		ID:       id,
		Scenario: res.Scenario,
		Spec:     res.Spec,
		Engine:   res.EnginePath,
		Points:   res.Points,
		Rounds:   res.Rounds,
		Metrics:  res.Metrics(),
		Text:     res.Table().String(),
		Trace:    trace,
	}
	// Workers cannot change results; zeroing it keeps the stored bytes —
	// and therefore the ETag — identical however the run was parallelized.
	env.Spec.Workers = 0
	body, meta, err := encode(id, env)
	if err != nil {
		return nil, store.Meta{}, fmt.Errorf("jobs: encoding result: %w", err)
	}
	return body, meta, nil
}

// encode renders v as a stored body — indented JSON with a trailing
// newline — with the meta the store would assign it under key.
func encode(key string, v any) ([]byte, store.Meta, error) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, store.Meta{}, err
	}
	body = append(body, '\n')
	sum := sha256.Sum256(body)
	return body, store.Meta{Key: key, SHA256: hex.EncodeToString(sum[:]), Size: int64(len(body))}, nil
}

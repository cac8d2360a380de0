package sim

import (
	"context"
	"sync"
)

// Run reporting: an opt-in, per-context collector that each Run call folds
// a structured EngineReport into. Like the telemetry Recorder, it is read
// from the context once per run and costs nothing when absent, so the
// allocation-free hot path is unchanged for callers that don't ask for a
// report. The layers above (scenario runs, jobs, server handlers, CLIs)
// aggregate the collected EngineReports into a RunReport envelope.

// PhaseTimes splits a run's wall time into its three phases: setup (from
// entry to worker launch), compute (workers running), and merge (shard
// aggregation). Wall times are scheduling-dependent by nature; report
// canonicalization zeroes them before persisting.
type PhaseTimes struct {
	SetupSeconds   float64 `json:"setup_seconds"`
	ComputeSeconds float64 `json:"compute_seconds"`
	MergeSeconds   float64 `json:"merge_seconds"`
}

// Add accumulates phase times across engine runs (episodes and report
// builders fold many runs into one report).
func (p *PhaseTimes) Add(q PhaseTimes) {
	p.SetupSeconds += q.SetupSeconds
	p.ComputeSeconds += q.ComputeSeconds
	p.MergeSeconds += q.MergeSeconds
}

// EngineReport is one Run call's diagnostic account: what was asked for,
// what actually ran, where the time went, and how it ended. Everything
// except the phase times is deterministic in (seed, spec) at any worker
// count.
type EngineReport struct {
	// Path is the engine path that produced the run: EngineInterpreted for
	// the agent.Receiver walk, EngineCompiled for a lowered Program.
	// (Analytic answers involve no engine run at all, so no EngineReport
	// ever carries EngineAnalytic; the layers above record it on the
	// RunReport envelope instead.)
	Path string `json:"path,omitempty"`
	Seed int64  `json:"seed"`
	// N is the configured subject count; Completed is how many subjects
	// were aggregated (N for a finished run, 0 for a failed one).
	N         int `json:"n"`
	Completed int `json:"completed"`
	// RequestedWorkers is Runner.Workers as configured (0 = GOMAXPROCS);
	// EffectiveWorkers is the clamped parallelism the run used.
	RequestedWorkers int            `json:"requested_workers"`
	EffectiveWorkers int            `json:"effective_workers"`
	Phases           PhaseTimes     `json:"phases"`
	StageFailures    map[string]int `json:"stage_failures,omitempty"`
	TimedOut         bool           `json:"timed_out,omitempty"`
	Canceled         bool           `json:"canceled,omitempty"`
	PanicRecovered   bool           `json:"panic_recovered,omitempty"`
	Error            string         `json:"error,omitempty"`
}

// ReportCollector accumulates the EngineReports of every Run executed
// under a context it is attached to. Sweeps and multi-step scenario runs
// contribute one report per engine run.
type ReportCollector struct {
	mu      sync.Mutex
	reports []EngineReport
}

// NewReportCollector returns an empty collector.
func NewReportCollector() *ReportCollector { return &ReportCollector{} }

func (c *ReportCollector) add(r EngineReport) {
	c.mu.Lock()
	c.reports = append(c.reports, r)
	c.mu.Unlock()
}

// Reports returns a copy of the collected engine reports in collection
// order. Runs that share a collector concurrently may interleave; callers
// that need determinism aggregate order-independently.
func (c *ReportCollector) Reports() []EngineReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]EngineReport, len(c.reports))
	copy(out, c.reports)
	return out
}

type collectorKey struct{}

// WithReportCollector returns a context carrying the collector; every
// sim.Run under it appends an EngineReport.
func WithReportCollector(ctx context.Context, c *ReportCollector) context.Context {
	if c == nil {
		return ctx
	}
	return context.WithValue(ctx, collectorKey{}, c)
}

// ReportCollectorFromContext returns the attached collector, or nil when
// reporting is off.
func ReportCollectorFromContext(ctx context.Context) *ReportCollector {
	if ctx == nil {
		return nil
	}
	c, _ := ctx.Value(collectorKey{}).(*ReportCollector)
	return c
}

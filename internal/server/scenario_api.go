package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"hitl/internal/cluster"
	"hitl/internal/jobs"
	"hitl/internal/report"
	"hitl/internal/scenario"
	_ "hitl/internal/scenario/all" // register the built-in scenarios
	"hitl/internal/telemetry"
)

// maxSweepValues caps the sweep axis length on /v1/scenarios/run: a sweep
// runs the whole Monte Carlo once per value, so the axis multiplies the
// request's cost the same way N does.
const maxSweepValues = 32

// writeSpecErr writes a spec validation failure as HTTP 400 with the JSON
// path of the offending field, reporting whether err was one.
func writeSpecErr(w http.ResponseWriter, err error) bool {
	var se *scenario.SpecError
	if !errors.As(err, &se) {
		return false
	}
	writeJSON(w, http.StatusBadRequest, map[string]string{
		"error": se.Error(),
		"field": se.Field,
	})
	return true
}

// handleScenarioList serves the scenario registry with full parameter
// schemas, so clients can discover knobs, ranges, and enums without reading
// Go.
func (s *Server) handleScenarioList(w http.ResponseWriter, r *http.Request) {
	type scenarioDTO struct {
		Name     string            `json:"name"`
		Doc      string            `json:"doc"`
		Defaults scenario.Defaults `json:"defaults"`
		Params   []scenario.Param  `json:"params"`
	}
	out := make([]scenarioDTO, 0)
	for _, sc := range scenario.All() {
		out = append(out, scenarioDTO{
			Name: sc.Name(), Doc: sc.Doc(), Defaults: sc.Defaults(), Params: sc.Params(),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// decodeScenarioSpec reads, normalizes, and bounds-checks a scenario spec
// request body. It is the single validation path shared by the synchronous
// endpoint (POST /v1/scenarios/run) and the async one (POST /v1/jobs), so
// a spec the job API accepts is exactly a spec the run API accepts. The
// returned spec always has Workers zeroed: the server owns its
// parallelism, and a client-picked worker count could not change results
// anyway. ok=false means a response has already been written.
func (s *Server) decodeScenarioSpec(w http.ResponseWriter, r *http.Request) (scenario.Spec, bool) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	spec, err := scenario.ParseSpec(body)
	if err != nil {
		writeErr(w, decodeStatus(err), err)
		return scenario.Spec{}, false
	}
	norm, err := scenario.Normalize(spec)
	if err != nil {
		if !writeSpecErr(w, err) {
			writeErr(w, http.StatusBadRequest, err)
		}
		return scenario.Spec{}, false
	}
	if norm.N > s.cfg.MaxSubjects {
		writeJSON(w, http.StatusBadRequest, map[string]string{
			"error": fmt.Sprintf("n=%d above the server cap %d", norm.N, s.cfg.MaxSubjects),
			"field": "n",
		})
		return scenario.Spec{}, false
	}
	if norm.Sweep != nil && len(norm.Sweep.Values) > maxSweepValues {
		writeJSON(w, http.StatusBadRequest, map[string]string{
			"error": fmt.Sprintf("sweep of %d values above the server cap %d", len(norm.Sweep.Values), maxSweepValues),
			"field": "sweep.values",
		})
		return scenario.Spec{}, false
	}
	norm.Workers = 0
	return norm, true
}

// handleScenarioRun executes a declarative scenario spec. The body is a
// scenario.Spec; validation failures come back as 400 with the offending
// field's JSON path. Runs are deterministic in the normalized spec (Workers
// excluded — it cannot change results), so full-fidelity 200s are served
// from the result cache under the spec's canonical digest, subject to the
// same bypass rules as /v1/experiments/run: per-request telemetry
// (?trace_sample / ?spans=1), injected faults (?faults=, gated by
// Config.AllowFaults), and degraded mode all skip the cache.
func (s *Server) handleScenarioRun(w http.ResponseWriter, r *http.Request) {
	norm, ok := s.decodeScenarioSpec(w, r)
	if !ok {
		return
	}

	// ?faults=<spec> perturbs the run deterministically — a chaos drill,
	// gated behind Config.AllowFaults exactly like /v1/experiments/run.
	faultSet, ok := s.faultsFromQuery(w, r)
	if !ok {
		return
	}
	requestedN, degraded := s.clampDegraded(w, &norm.N)
	traceSample, ok := s.traceSampleFromQuery(w, r)
	if !ok {
		return
	}
	wantSpans := r.URL.Query().Get("spans") == "1"
	// ?report=1 attaches a full-fidelity run report (real worker counts and
	// phase wall times, unlike the canonicalized job reports). Reports are
	// per-execution observations, so they bypass the cache like traces do.
	wantReport := r.URL.Query().Get("report") == "1"

	cacheKey := ""
	if traceSample == 0 && !wantSpans && faultSet == nil && !degraded && !wantReport {
		if digest, err := scenario.Canonical(norm); err == nil {
			cacheKey = "scenarios/run|" + digest
			if s.serveCached(w, cacheKey) {
				return
			}
		}
	}

	tracer := telemetry.NewTracer(nil)
	exe, err := jobs.Execute(telemetry.WithTracer(r.Context(), tracer), norm, jobs.ExecOptions{
		Faults:      faultSet,
		TraceSample: traceSample,
		Report:      wantReport,
		Degraded:    degraded,
		RequestedN:  requestedN,
	})
	if err != nil {
		s.writeComputeErr(w, r, err, http.StatusInternalServerError)
		return
	}
	resp := newRunResponse(exe.Result)
	// X-Engine reports which engine path answered (interpreted, compiled,
	// or analytic) — diagnostic only: interpreted and compiled bodies are
	// bit-identical, and analytic specs always resolve analytic.
	w.Header().Set("X-Engine", resp.Engine)
	resp.Trace = exe.Recorder.Traces()
	if wantSpans {
		resp.Spans = tracer.Spans()
	}
	if exe.Report != nil {
		exe.Report.Cache = "bypass"
		resp.Report = exe.Report
	}
	s.writeCacheableJSON(w, cacheKey, resp.Engine, resp)
}

// runResponse is the body of /v1/scenarios/run and /v1/cluster/run. Its
// fields are in alphabetical order, and the optional ones are omitted when
// empty.
type runResponse struct {
	Cluster  *cluster.RunStats        `json:"cluster,omitempty"`
	Engine   string                   `json:"engine"`
	Metrics  map[string]float64       `json:"metrics"`
	Points   []scenario.Point         `json:"points"`
	Report   *report.RunReport        `json:"report,omitempty"`
	Rounds   []scenario.RoundSummary  `json:"rounds,omitempty"`
	Scenario string                   `json:"scenario"`
	Spans    []telemetry.SpanRecord   `json:"spans,omitempty"`
	Spec     scenario.Spec            `json:"spec"`
	Text     string                   `json:"text"`
	Trace    []telemetry.SubjectTrace `json:"trace,omitempty"`
}

// newRunResponse renders a result into the response body. Spec echoes the
// normalized spec the run actually executed — n in particular may have
// been clamped by degraded mode.
func newRunResponse(res *scenario.Result) *runResponse {
	return &runResponse{
		Engine:   res.EnginePath,
		Metrics:  res.Metrics(),
		Points:   res.Points,
		Rounds:   res.Rounds,
		Scenario: res.Scenario,
		Spec:     res.Spec,
		Text:     res.Table().String(),
	}
}

// clampDegraded caps *n at the degraded subject limit while the server is
// in degraded mode (n <= 0, a run's default size, is capped too), marking
// the response X-Degraded. It returns the count asked for and whether the
// server is degraded.
func (s *Server) clampDegraded(w http.ResponseWriter, n *int) (requested int, degraded bool) {
	requested = *n
	if !s.overload.degraded() {
		return requested, false
	}
	if *n <= 0 || *n > s.cfg.DegradedMaxSubjects {
		*n = s.cfg.DegradedMaxSubjects
	}
	w.Header().Set("X-Degraded", "subjects-clamped")
	s.overload.degradedRuns.Add(1)
	return requested, true
}

// traceSampleFromQuery parses ?trace_sample=K, the number of per-subject
// stage traces to inline (capped by MaxTraceSample; 0 when absent).
// ok=false means a 400 has been written.
func (s *Server) traceSampleFromQuery(w http.ResponseWriter, r *http.Request) (int, bool) {
	q := r.URL.Query().Get("trace_sample")
	if q == "" {
		return 0, true
	}
	v, err := strconv.Atoi(q)
	if err != nil || v < 1 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("invalid trace_sample %q", q))
		return 0, false
	}
	return min(v, s.cfg.MaxTraceSample), true
}

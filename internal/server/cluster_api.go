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
)

// Cluster endpoints. Every server is a shard worker: POST
// /v1/cluster/shard executes one shard spec (a scenario spec whose Offset
// and N select a global subject subrange) and returns raw aggregates for
// the coordinator to merge. A server configured with Config.Cluster
// additionally acts as a coordinator: POST /v1/cluster/run slices a spec
// across the worker pool, rides out worker failures with retry and
// failover, and returns the merged result — bit-identical to running the
// spec on one node.

// handleClusterShard executes one shard. The body is a scenario spec;
// unlike /v1/scenarios/run the response carries each point's raw
// aggregate, which is what the coordinator merges. Degraded mode sheds
// the request (503 + Retry-After) instead of clamping it: a silently
// clamped shard would poison the merged run, and the coordinator knows
// how to wait or go elsewhere. Shard responses are cached under the shard
// spec's own canonical digest, so a re-dispatched or re-run shard is
// answered from memory.
func (s *Server) handleClusterShard(w http.ResponseWriter, r *http.Request) {
	norm, ok := s.decodeScenarioSpec(w, r)
	if !ok {
		return
	}
	if s.overload.degraded() {
		w.Header().Set("Retry-After", s.retryAfter)
		writeErr(w, http.StatusServiceUnavailable,
			errors.New("worker degraded; shard shed rather than clamped"))
		return
	}
	// ?faults= is the chaos seam (gated by Config.AllowFaults): the run
	// executes under injection and the response says so, which the
	// coordinator treats as a retryable failure — a drill for the retry
	// path, not a way to smuggle perturbed aggregates into a merge.
	faultSet, ok := s.faultsFromQuery(w, r)
	if !ok {
		return
	}
	digest, err := scenario.Canonical(norm)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}

	cacheKey := ""
	if faultSet == nil {
		cacheKey = "cluster/shard|" + digest
		if s.serveCached(w, cacheKey) {
			return
		}
	}

	exe, err := jobs.Execute(r.Context(), norm, jobs.ExecOptions{Faults: faultSet})
	if err != nil {
		s.writeComputeErr(w, r, err, http.StatusInternalServerError)
		return
	}
	resp := cluster.ResponseFromResult(exe.Result, digest, faultSet != nil)
	w.Header().Set("X-Engine", resp.Engine)
	s.writeCacheableJSON(w, cacheKey, resp.Engine, resp)
}

// handleClusterRun coordinates a distributed run. The body is the same
// scenario spec /v1/scenarios/run takes (shards must not set Offset —
// slicing is the coordinator's job); ?shards=K overrides the shard count
// (default one per worker) and ?partial=1 lets the run complete with
// missing-shard accounting when retries exhaust. The response is the
// scenario response plus a "cluster" section with dispatch/retry/failover
// accounting, and the merged result is persisted into the job store under
// the spec's canonical digest, so GET /v1/jobs/{digest}/result serves it
// like any locally-computed result.
func (s *Server) handleClusterRun(w http.ResponseWriter, r *http.Request) {
	if s.coord == nil {
		writeErr(w, http.StatusServiceUnavailable,
			errors.New("no worker pool configured (start with -workers or -workers-file)"))
		return
	}
	norm, ok := s.decodeScenarioSpec(w, r)
	if !ok {
		return
	}
	opts := cluster.RunOptions{AllowPartial: r.URL.Query().Get("partial") == "1"}
	if q := r.URL.Query().Get("shards"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 || v > maxClusterShards {
			writeErr(w, http.StatusBadRequest,
				fmt.Errorf("invalid shards %q (want 1..%d)", q, maxClusterShards))
			return
		}
		opts.Shards = v
	}

	res, stats, err := s.coord.Run(r.Context(), norm, opts)
	if err != nil {
		s.writeComputeErr(w, r, err, http.StatusBadGateway)
		return
	}

	w.Header().Set("X-Engine", res.EnginePath)
	if stats.Partial {
		w.Header().Set("X-Cluster-Partial", "1")
	}
	// Persist complete merged results under the parent digest, exactly as
	// a local job run would have: the async API then serves
	// cluster-computed results (GET /v1/jobs/{digest}/result) and future
	// job submissions of the same spec coalesce onto the stored bytes.
	// Partial results are never persisted — the store is for full-
	// fidelity results only.
	if s.store != nil && !stats.Partial {
		if digest, derr := scenario.Canonical(norm); derr == nil {
			if body, _, eerr := jobs.EncodeResult(digest, res, nil); eerr == nil {
				_, _ = s.store.Put(digest, body)
			}
		}
	}
	resp := newRunResponse(res)
	resp.Cluster = &stats
	// ?report=1 attaches a RunReport with the cluster section filled in.
	// The engine phases ran on remote workers, so only the coordinator's
	// view is populated.
	if r.URL.Query().Get("report") == "1" {
		rep := jobs.NewReport(norm, res, nil)
		rep.Partial = stats.Partial
		rep.Cluster = &report.ClusterReport{
			Shards:     stats.Shards,
			Dispatched: stats.Dispatched,
			Retries:    stats.Retries,
			Failovers:  stats.Failovers,
			Nodes:      stats.Nodes,
			Partial:    stats.Partial,
			Missing:    stats.Missing,
		}
		resp.Report = &rep
	}
	writeJSON(w, http.StatusOK, resp)
}

// maxClusterShards bounds ?shards=: past a few hundred, shard overhead
// dwarfs shard compute.
const maxClusterShards = 256

// handleClusterNodes reports the coordinator's current health view of its
// pool, for operators and the smoke scripts.
func (s *Server) handleClusterNodes(w http.ResponseWriter, r *http.Request) {
	if s.coord == nil {
		writeErr(w, http.StatusServiceUnavailable,
			errors.New("no worker pool configured (start with -workers or -workers-file)"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"workers": s.coord.Workers(),
		"nodes":   s.coord.NodeStates(),
	})
}

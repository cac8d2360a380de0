package telemetry

import (
	"container/heap"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// StageCheck is one stage evaluation inside a subject trace: the pipeline
// stage, the probability the subject was sampled against, whether they
// passed, and any routing note ("heuristic decision: ...", "gems: slip").
type StageCheck struct {
	Stage  string  `json:"stage"`
	P      float64 `json:"p"`
	Passed bool    `json:"passed"`
	Note   string  `json:"note,omitempty"`
}

// SubjectTrace is the full stage-by-stage trajectory of one simulated
// subject: why did subject 4711 fail at comprehension? One trace per line
// in the JSONL export.
type SubjectTrace struct {
	// Subject is the subject index within its run; Seed is the run's master
	// seed, so (Seed, Subject) pins down the exact random stream and the
	// trace can be replayed.
	Subject int   `json:"subject"`
	Seed    int64 `json:"seed"`
	// Heeded, FailedStage, ErrorClass, HeuristicPath, and Spoofed mirror
	// the subject's outcome.
	Heeded        bool   `json:"heeded"`
	FailedStage   string `json:"failed_stage,omitempty"`
	ErrorClass    string `json:"error_class,omitempty"`
	HeuristicPath bool   `json:"heuristic_path,omitempty"`
	Spoofed       bool   `json:"spoofed,omitempty"`
	// Checks is the ordered stage trajectory. Empty for scenarios that
	// aggregate multiple encounters into one outcome without forwarding a
	// pipeline trace.
	Checks []StageCheck `json:"checks,omitempty"`
}

// mix64 is a splitmix64-style finalizer used to derive sampling priorities.
func mix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// sampledTrace pairs a trace with its sampling priority.
type sampledTrace struct {
	priority uint64
	trace    SubjectTrace
}

// traceHeap is a max-heap on priority, so the kept set is always the K
// offers with the smallest priorities.
type traceHeap []sampledTrace

func (h traceHeap) Len() int           { return len(h) }
func (h traceHeap) Less(i, j int) bool { return h[i].priority > h[j].priority }
func (h traceHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *traceHeap) Push(x any)        { *h = append(*h, x.(sampledTrace)) }
func (h *traceHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// Recorder keeps a uniform sample of K subject traces out of however many
// are offered. Sampling is a bottom-K sketch: each offer gets a priority
// hashed from (recorder seed, run seed, subject index) and the K smallest
// priorities win. Because the priority depends only on the subject's
// identity — never on arrival order — the sampled set is deterministic
// regardless of worker count or goroutine scheduling, and offering traces
// never touches the simulation's random streams.
type Recorder struct {
	k    int
	seed int64

	mu      sync.Mutex
	kept    traceHeap
	offered int64
}

// NewRecorder creates a recorder sampling up to k traces. The seed salts
// the sampling hash so different recorders over the same run sample
// different subjects; k < 1 is treated as 1.
func NewRecorder(k int, seed int64) *Recorder {
	if k < 1 {
		k = 1
	}
	return &Recorder{k: k, seed: seed}
}

// Cap returns the reservoir capacity K.
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return r.k
}

// Offered returns how many traces have been offered so far.
func (r *Recorder) Offered() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.offered
}

// priority derives the deterministic sampling priority for a subject.
func (r *Recorder) priority(runSeed int64, subject int) uint64 {
	return mix64(mix64(uint64(r.seed)^mix64(uint64(runSeed))) + uint64(int64(subject)))
}

// Offer submits one subject trace to the reservoir. Safe for concurrent
// use; a nil recorder ignores the offer.
func (r *Recorder) Offer(t SubjectTrace) {
	r.Consider(t.Seed, t.Subject, func() SubjectTrace { return t })
}

// Consider offers the subject identified by (runSeed, subject) and calls
// build to materialize its trace only if the subject currently wins a
// reservoir slot. A subject's priority is fixed and the admission threshold
// only tightens as offers accumulate, so a subject rejected now could never
// be admitted later and skipping build loses nothing. This keeps the
// per-subject cost of an enabled recorder to one hash plus a mutexed
// comparison for the vast majority of subjects that are not sampled. Safe
// for concurrent use; a nil recorder ignores the offer.
func (r *Recorder) Consider(runSeed int64, subject int, build func() SubjectTrace) {
	if r == nil {
		return
	}
	p := r.priority(runSeed, subject)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.offered++
	switch {
	case len(r.kept) < r.k:
		heap.Push(&r.kept, sampledTrace{priority: p, trace: build()})
		engine.tracesKept.Add(1)
	case p < r.kept[0].priority:
		r.kept[0] = sampledTrace{priority: p, trace: build()}
		heap.Fix(&r.kept, 0)
	}
}

// Admits reports whether the subject identified by (runSeed, subject)
// would win a reservoir slot if offered now. The threshold only tightens,
// so a subject it rejects is never kept, and a run can skip recording that
// subject's trajectory at all. A nil recorder admits nothing.
func (r *Recorder) Admits(runSeed int64, subject int) bool {
	if r == nil {
		return false
	}
	p := r.priority(runSeed, subject)
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.kept) < r.k || p < r.kept[0].priority
}

// Traces returns the sampled traces ordered by (seed, subject index).
func (r *Recorder) Traces() []SubjectTrace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]SubjectTrace, len(r.kept))
	for i, st := range r.kept {
		out[i] = st.trace
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seed != out[j].Seed {
			return out[i].Seed < out[j].Seed
		}
		return out[i].Subject < out[j].Subject
	})
	return out
}

// WriteJSONL writes the sampled traces as JSON Lines: one compact JSON
// object per trace per line.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	for _, t := range r.Traces() {
		raw, err := json.Marshal(t)
		if err != nil {
			return fmt.Errorf("telemetry: encoding trace: %w", err)
		}
		raw = append(raw, '\n')
		if _, err := w.Write(raw); err != nil {
			return err
		}
	}
	return nil
}

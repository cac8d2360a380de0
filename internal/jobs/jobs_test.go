package jobs

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"hitl/internal/faults"
	"hitl/internal/scenario"
	_ "hitl/internal/scenario/all" // register the built-in scenarios
	"hitl/internal/store"
)

// testSpec is a small sweep over the campaign detector TPR: cheap enough
// for a unit test, sweepy enough to exercise multi-point streaming.
func testSpec(t *testing.T, workers int) (scenario.Spec, string) {
	t.Helper()
	spec := scenario.Spec{
		Scenario:   "phishing-campaign",
		Population: "general-public",
		N:          60,
		Seed:       11,
		Workers:    workers,
		Params:     map[string]any{"days": 5},
		Sweep:      &scenario.Axis{Param: "tpr", Values: []float64{0.5, 0.9}},
	}
	norm, err := scenario.Normalize(spec)
	if err != nil {
		t.Fatal(err)
	}
	digest, err := scenario.Canonical(norm)
	if err != nil {
		t.Fatal(err)
	}
	return norm, digest
}

func openStore(t *testing.T) *store.Store {
	t.Helper()
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// waitComplete blocks until the job is terminal (with a test deadline).
func waitComplete(t *testing.T, j *Job) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	from := 0
	for {
		evs, changed, finished := j.Watch(from)
		from += len(evs)
		if finished {
			return j.Status()
		}
		select {
		case <-changed:
		case <-time.After(time.Until(deadline)):
			t.Fatalf("job %s not terminal before deadline: %+v", j.ID, j.Status())
		}
	}
}

// drainEvents collects the full event log of a terminal job.
func drainEvents(t *testing.T, j *Job) []Event {
	t.Helper()
	waitComplete(t, j)
	evs, _, _ := j.Watch(0)
	return evs
}

func TestJobCompletesAndPersists(t *testing.T) {
	st := openStore(t)
	m := NewManager(Config{Store: st})
	norm, digest := testSpec(t, 0)
	j, created, err := m.Submit(norm, digest, SubmitOptions{})
	if err != nil || !created {
		t.Fatalf("Submit = created %v, err %v", created, err)
	}
	status := waitComplete(t, j)
	if status.State != StateComplete {
		t.Fatalf("state = %s (%s)", status.State, status.Error)
	}
	if status.Done != 2 || status.Total != 2 {
		t.Errorf("progress = %d/%d, want 2/2", status.Done, status.Total)
	}
	body, meta, ok := j.Result()
	if !ok || meta.ETag() != status.ETag {
		t.Fatalf("Result ok=%v, etag %s vs %s", ok, meta.ETag(), status.ETag)
	}
	var env ResultEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.ID != digest || env.Scenario != "phishing-campaign" || len(env.Points) != 2 {
		t.Errorf("envelope: id %s, scenario %s, %d points", env.ID, env.Scenario, len(env.Points))
	}
	if env.Spec.Workers != 0 {
		t.Errorf("stored spec leaks workers=%d; envelope must be worker-independent", env.Spec.Workers)
	}
	if len(env.Trace) == 0 {
		t.Error("envelope has no sampled traces")
	}
	// The result landed in the store under the digest, integrity-checked.
	got, smeta, err := st.Get(digest)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(body) || smeta.ETag() != meta.ETag() {
		t.Error("stored bytes differ from the job result")
	}
}

// episodeSpec is a small adaptive episode: three rounds of the adaptive
// phishing campaign under the phish-escalation policy.
func episodeSpec(t *testing.T) (scenario.Spec, string) {
	t.Helper()
	spec := scenario.Spec{
		Scenario:   "phishing-adaptive-campaign",
		Population: "general-public",
		N:          60,
		Seed:       17,
		Rounds:     3,
		Adapt:      &scenario.AdaptSpec{Policy: "phish-escalation"},
		Params:     map[string]any{"days": 5},
	}
	norm, err := scenario.Normalize(spec)
	if err != nil {
		t.Fatal(err)
	}
	digest, err := scenario.Canonical(norm)
	if err != nil {
		t.Fatal(err)
	}
	return norm, digest
}

// TestEpisodicJobStreamsRounds runs an episodic job and checks the
// per-round surfaces: progress totals count rounds, the stream carries
// one round event per round (with seed and applied policy params), the
// stored envelope keeps the round summaries, the run report records the
// rounds section, and a restart-synthesized job replays the same stream.
func TestEpisodicJobStreamsRounds(t *testing.T) {
	st := openStore(t)
	m := NewManager(Config{Store: st})
	norm, digest := episodeSpec(t)
	j, _, err := m.Submit(norm, digest, SubmitOptions{SpecDigest: digest})
	if err != nil {
		t.Fatal(err)
	}
	status := waitComplete(t, j)
	if status.State != StateComplete {
		t.Fatalf("state = %s (%s)", status.State, status.Error)
	}
	if status.Done != 3 || status.Total != 3 {
		t.Errorf("progress = %d/%d, want 3/3 (one per round)", status.Done, status.Total)
	}
	evs := drainEvents(t, j)
	var rounds, points int
	for _, ev := range evs {
		switch ev.Type {
		case "round":
			if ev.Round == nil {
				t.Fatal("round event without a payload")
			}
			if ev.Round.Round != rounds {
				t.Errorf("round event %d carries round %d", rounds, ev.Round.Round)
			}
			if ev.Round.Seed == 0 || len(ev.Round.Params) == 0 || len(ev.Round.Values) == 0 {
				t.Errorf("round event %d incomplete: %+v", rounds, ev.Round)
			}
			rounds++
		case "point":
			points++
		}
	}
	if rounds != 3 || points != 3 {
		t.Errorf("stream carried %d round and %d point events, want 3 and 3", rounds, points)
	}

	body, _, ok := j.Result()
	if !ok {
		t.Fatal("no result")
	}
	var env ResultEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if len(env.Rounds) != 3 {
		t.Fatalf("envelope has %d rounds, want 3", len(env.Rounds))
	}
	rbody, _, ok := j.Report()
	if !ok {
		t.Fatal("no run report")
	}
	var rep struct {
		Rounds []struct {
			Round int   `json:"round"`
			Seed  int64 `json:"seed"`
		} `json:"rounds"`
	}
	if err := json.Unmarshal(rbody, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Rounds) != 3 {
		t.Fatalf("run report has %d rounds, want 3", len(rep.Rounds))
	}
	for r, rr := range rep.Rounds {
		if rr.Round != r || rr.Seed != env.Rounds[r].Seed {
			t.Errorf("report round %d = %+v, want round %d seed %d", r, rr, r, env.Rounds[r].Seed)
		}
	}

	// A restart-synthesized job replays the same per-round stream.
	m2 := NewManager(Config{Store: st})
	j2, created, err := m2.Submit(norm, digest, SubmitOptions{SpecDigest: digest})
	if err != nil {
		t.Fatal(err)
	}
	if created {
		t.Fatal("restart recomputed a stored episodic result")
	}
	evs2 := drainEvents(t, j2)
	var rounds2 int
	for _, ev := range evs2 {
		if ev.Type == "round" {
			rounds2++
		}
	}
	if rounds2 != 3 {
		t.Errorf("replayed stream carried %d round events, want 3", rounds2)
	}
	if st2 := j2.Status(); st2.Total != 3 {
		t.Errorf("synthesized job total = %d, want 3", st2.Total)
	}
}

// TestSingleflightCoalesces submits the same digest concurrently and checks
// exactly one submission computes.
func TestSingleflightCoalesces(t *testing.T) {
	m := NewManager(Config{Store: openStore(t)})
	norm, digest := testSpec(t, 0)
	const n = 8
	type res struct {
		j       *Job
		created bool
	}
	out := make(chan res, n)
	for i := 0; i < n; i++ {
		go func() {
			j, created, err := m.Submit(norm, digest, SubmitOptions{})
			if err != nil {
				t.Error(err)
			}
			out <- res{j, created}
		}()
	}
	createdCount := 0
	var job *Job
	for i := 0; i < n; i++ {
		r := <-out
		if r.created {
			createdCount++
		}
		if job == nil {
			job = r.j
		} else if r.j != job {
			t.Error("concurrent submissions returned distinct jobs")
		}
	}
	if createdCount != 1 {
		t.Errorf("created %d jobs for one digest, want 1", createdCount)
	}
	waitComplete(t, job)
	if got := m.submitted.Load(); got != 1 {
		t.Errorf("submitted = %d, want 1", got)
	}
	if got := m.coalesced.Load(); got != n-1 {
		t.Errorf("coalesced = %d, want %d", got, n-1)
	}
}

// TestStreamWorkerIndependence runs the same spec at different engine
// worker counts and checks the event streams — point order, payloads,
// traces — and the stored ETags are identical.
func TestStreamWorkerIndependence(t *testing.T) {
	run := func(workers int) ([]Event, string) {
		m := NewManager(Config{Store: openStore(t)})
		norm, digest := testSpec(t, workers)
		j, _, err := m.Submit(norm, digest, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		evs := drainEvents(t, j)
		return evs, j.Status().ETag
	}
	evs1, etag1 := run(1)
	evs4, etag4 := run(4)
	if etag1 != etag4 {
		t.Errorf("ETag differs by worker count: %s vs %s", etag1, etag4)
	}
	j1, _ := json.Marshal(evs1)
	j4, _ := json.Marshal(evs4)
	if string(j1) != string(j4) {
		t.Errorf("event streams differ by worker count:\nworkers=1: %s\nworkers=4: %s", j1, j4)
	}
}

// TestRestartSurvival completes a job, then opens a fresh manager over the
// same store directory and checks the job is served from disk — same
// bytes, same ETag, same replayable event stream — without recomputing.
func TestRestartSurvival(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m1 := NewManager(Config{Store: st1})
	norm, digest := testSpec(t, 0)
	j1, _, err := m1.Submit(norm, digest, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	evs1 := drainEvents(t, j1)
	body1, meta1, _ := j1.Result()

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewManager(Config{Store: st2})
	j2, err := m2.Get(digest)
	if err != nil {
		t.Fatalf("restarted manager lost the job: %v", err)
	}
	st := j2.Status()
	if st.State != StateComplete || st.ETag != meta1.ETag() {
		t.Errorf("restarted status = %+v, want complete with etag %s", st, meta1.ETag())
	}
	body2, meta2, ok := j2.Result()
	if !ok || string(body2) != string(body1) || meta2.ETag() != meta1.ETag() {
		t.Error("restarted result bytes or ETag differ")
	}
	evs2 := drainEvents(t, j2)
	if !reflect.DeepEqual(evsJSON(t, evs1), evsJSON(t, evs2)) {
		t.Error("replayed event stream differs from the live one")
	}
	if m2.submitted.Load() != 0 {
		t.Errorf("restart recomputed: submitted = %d, want 0", m2.submitted.Load())
	}
	// A re-submission of the same spec coalesces onto the stored result.
	j3, created, err := m2.Submit(norm, digest, SubmitOptions{})
	if err != nil || created {
		t.Errorf("resubmit after restart: created=%v, err=%v; want coalesced", created, err)
	}
	if j3.Status().State != StateComplete {
		t.Error("resubmitted job is not the completed one")
	}
}

// TestLiveStreamMatchesCompleteLog follows a job's stream from submission
// across completion, where the live log gives way to the log derived from
// the result body, and checks the follower received exactly the completed
// job's log. Injected latency keeps the job running long enough for part
// of the stream to be read live.
func TestLiveStreamMatchesCompleteLog(t *testing.T) {
	m := NewManager(Config{Store: openStore(t)})
	norm, digest := testSpec(t, 1)
	const faultSpec = "latency:p=1,ms=2"
	fs, err := faults.Parse(faultSpec)
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := m.Submit(norm, VariantID(digest, faultSpec), SubmitOptions{Faults: fs})
	if err != nil {
		t.Fatal(err)
	}
	var followed []Event
	live := false
	deadline := time.After(30 * time.Second)
	for from := 0; ; {
		evs, changed, finished := j.Watch(from)
		if len(evs) > 0 && !j.Status().State.Terminal() {
			live = true
		}
		followed = append(followed, evs...)
		from += len(evs)
		if finished {
			break
		}
		select {
		case <-changed:
		case <-deadline:
			t.Fatalf("job not terminal before deadline: %+v", j.Status())
		}
	}
	if st := j.Status(); st.State != StateComplete {
		t.Fatalf("state = %s (%s)", st.State, st.Error)
	}
	if !live {
		t.Fatal("the job completed before any event was read live")
	}
	all, _, _ := j.Watch(0)
	if got, want := evsJSON(t, followed), evsJSON(t, all); got != want {
		t.Errorf("followed stream differs from the completed log:\nfollowed: %s\ncomplete: %s", got, want)
	}
}

// TestCompletedJobOutlivesStoreOverwrite completes a job, then writes
// other bytes under its digest, as another surface running the same spec
// may: the job keeps serving its own body under its own ETag, and its
// stream still ends in its own traces and done.
func TestCompletedJobOutlivesStoreOverwrite(t *testing.T) {
	st := openStore(t)
	m := NewManager(Config{Store: st})
	norm, digest := testSpec(t, 0)
	j, _, err := m.Submit(norm, digest, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := waitComplete(t, j); got.State != StateComplete {
		t.Fatalf("state = %s (%s)", got.State, got.Error)
	}
	body, meta, _ := j.Result()
	log, _, _ := j.Watch(0)
	if _, err := st.Put(digest, []byte("{\"id\":\"someone else's envelope\"}\n")); err != nil {
		t.Fatal(err)
	}
	got, gotMeta, ok := j.Result()
	sum := sha256.Sum256(got)
	if !ok || string(got) != string(body) || gotMeta != meta || hex.EncodeToString(sum[:]) != meta.SHA256 {
		t.Fatalf("after the overwrite Result = %.60q (etag %s), want the job's own body (etag %s)", got, gotMeta.ETag(), meta.ETag())
	}
	after, _, finished := j.Watch(0)
	if !finished || evsJSON(t, after) != evsJSON(t, log) {
		t.Fatalf("after the overwrite the stream differs:\n got: %s\nwant: %s", evsJSON(t, after), evsJSON(t, log))
	}
	traces := 0
	for _, ev := range after {
		if ev.Type == "trace" {
			traces++
		}
	}
	if last := after[len(after)-1]; traces != traceSample || last.Type != "done" || last.ETag != meta.ETag() {
		t.Fatalf("stream has %d traces and ends in %+v, want %d traces and done with etag %s", traces, last, traceSample, meta.ETag())
	}
}

func evsJSON(t *testing.T, evs []Event) string {
	t.Helper()
	b, err := json.Marshal(evs)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestFailedJobReported checks a failing spec lands in StateFailed with an
// error event, and a resubmission retries instead of coalescing onto the
// failure.
func TestFailedJobReported(t *testing.T) {
	m := NewManager(Config{Store: openStore(t), Timeout: time.Nanosecond})
	norm, digest := testSpec(t, 0)
	j, _, err := m.Submit(norm, digest, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	status := waitComplete(t, j)
	if status.State != StateFailed || status.Error == "" {
		t.Fatalf("status = %+v, want failed with error", status)
	}
	evs, _, _ := j.Watch(0)
	if evs[len(evs)-1].Type != "error" {
		t.Errorf("last event = %+v, want error", evs[len(evs)-1])
	}
	if _, _, ok := j.Result(); ok {
		t.Error("failed job serves a result")
	}
	// Failure is retryable: the next submission starts fresh work.
	if _, created, err := m.Submit(norm, digest, SubmitOptions{}); err != nil || !created {
		t.Errorf("resubmit after failure: created=%v, err=%v; want a fresh job", created, err)
	}
}

// TestDrainRejectsNewJobs checks Drain stops submissions while Wait lets
// accepted work finish.
func TestDrainRejectsNewJobs(t *testing.T) {
	m := NewManager(Config{Store: openStore(t)})
	norm, digest := testSpec(t, 0)
	j, _, err := m.Submit(norm, digest, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m.Drain()
	if _, _, err := m.Submit(norm, digest, SubmitOptions{}); err == nil {
		// Coalescing onto an existing job while draining would also be
		// acceptable; what must not happen is NEW work.
		t.Log("draining submit coalesced onto the in-flight job")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Wait(ctx); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if j.Status().State != StateComplete {
		t.Errorf("accepted job did not finish under drain: %+v", j.Status())
	}
}

// TestJobTableBound fills the table with live jobs and checks overflow is
// shed, then that terminal jobs are evicted to make room.
func TestJobTableBound(t *testing.T) {
	m := NewManager(Config{Store: openStore(t), MaxJobs: 1})
	norm, digest := testSpec(t, 0)
	j, _, err := m.Submit(norm, digest, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	norm2, digest2 := func() (scenario.Spec, string) {
		spec := norm
		spec.Seed = 99 // different digest
		n, err := scenario.Normalize(spec)
		if err != nil {
			t.Fatal(err)
		}
		d, err := scenario.Canonical(n)
		if err != nil {
			t.Fatal(err)
		}
		return n, d
	}()
	waitComplete(t, j)
	// The first job is terminal, so the table can evict it for the second.
	j2, created, err := m.Submit(norm2, digest2, SubmitOptions{})
	if err != nil || !created {
		t.Fatalf("submit after eviction: created=%v, err=%v", created, err)
	}
	if m.Tracked() != 1 {
		t.Errorf("tracked = %d, want 1", m.Tracked())
	}
	waitComplete(t, j2)
	// The evicted job's result is still served — from the store.
	if got, err := m.Get(digest); err != nil || got.Status().State != StateComplete {
		t.Errorf("evicted job unreadable: %v", err)
	}
}

package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"hitl/internal/jobs"
	"hitl/internal/report"
	"hitl/internal/scenario"
	"hitl/internal/sim"
	"hitl/internal/store"
	"hitl/internal/telemetry"
)

// span is one timed call the benchmark made: its layer name, its
// interval since the tracer started, the span that caused it (-1 for a
// root), the op it belongs to, and the index of the op's spec.
type span struct {
	name       string
	start, end time.Duration
	parent     int
	op, spec   int
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per span.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) start(name string, parent, op, spec int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.t0), parent: parent, op: op, spec: spec})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].end = time.Since(t.t0)
}

// durations returns the durations in ms of every span named name whose
// spec index matches spec (any spec when spec < 0).
func (t *tracer) durations(name string, spec int) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name && (spec < 0 || s.spec == spec) {
			out = append(out, float64(s.end-s.start)/float64(time.Millisecond))
		}
	}
	return out
}

// p50 is the median duration in ms of the spans named name.
func (t *tracer) p50(name string) float64 { return median(t.durations(name, -1)) }

// jobTraceSample is the job manager's default subject-trace reservoir,
// which a job-sized replay of the engine attaches.
const jobTraceSample = 8

// replayShards is how many shards serve-cluster's coordinator splits a
// run into: one per worker.
const replayShards = 2

// replay feeds one op's inputs through each layer's public functions, one
// span per call, outside any op's timed interval. The calls mirror the
// serving paths: the sync run (decode, normalize, digest, engine, render),
// the job write path (engine with a trace recorder and report collector,
// result encoding, report build, two fsync'd Puts), the job read path
// (two Gets), and the cluster path (shard, shard engines, merge). Every
// workload replays every layer, so a layer's number exists even where the
// workload barely touches it.
func (r *runner) replay(op Op, st *store.Store) error {
	t := r.tr
	ctx := context.Background()
	root := t.start("replay", -1, op.ID, 0)
	defer t.end(root)
	for k, body := range op.Bodies {
		sp := t.start("scenario.decode", root, op.ID, k)
		spec, err := scenario.ParseSpec(bytes.NewReader(body))
		t.end(sp)
		if err != nil {
			return err
		}
		sp = t.start("scenario.normalize", root, op.ID, k)
		norm, err := scenario.Normalize(spec)
		t.end(sp)
		if err != nil {
			return err
		}
		sp = t.start("scenario.digest", root, op.ID, k)
		digest, err := scenario.Canonical(norm)
		t.end(sp)
		if err != nil {
			return err
		}
		sp = t.start("engine.untraced", root, op.ID, k)
		res, err := scenario.Run(ctx, norm)
		t.end(sp)
		if err != nil {
			return err
		}
		var text bytes.Buffer
		sp = t.start("render.table", root, op.ID, k)
		err = res.Table().WriteText(&text)
		t.end(sp)
		if err != nil {
			return err
		}

		rec := telemetry.NewRecorder(jobTraceSample, norm.Seed)
		col := sim.NewReportCollector()
		jctx := sim.WithReportCollector(telemetry.WithRecorder(ctx, rec), col)
		before := telemetry.Snapshot()
		sp = t.start("engine.traced", root, op.ID, k)
		jres, err := scenario.Run(jctx, norm)
		t.end(sp)
		if err != nil {
			return err
		}
		sp = t.start("encode.job", root, op.ID, k)
		jbody, _, err := jobs.EncodeResult(digest, jres, rec.Traces())
		t.end(sp)
		if err != nil {
			return err
		}
		sp = t.start("report.build", root, op.ID, k)
		rep := report.FromEngine(col.Reports())
		rep.JobID, rep.SpecDigest, rep.Scenario = digest, digest, norm.Scenario
		rep.EnginePath, rep.Seed, rep.N = jres.EnginePath, norm.Seed, norm.N
		rep.Rounds = jobs.RoundReports(jres.Rounds)
		delta := telemetry.Snapshot().Delta(before)
		rep.Engine = &delta
		rbody, err := rep.Canonical().MarshalIndented()
		t.end(sp)
		if err != nil {
			return err
		}
		for _, e := range []struct {
			key  string
			body []byte
		}{{digest, jbody}, {jobs.ReportKey(digest), rbody}} {
			sp = t.start("store.put", root, op.ID, k)
			_, err = st.Put(e.key, e.body)
			t.end(sp)
			if err != nil {
				return err
			}
		}
		for _, key := range []string{digest, jobs.ReportKey(digest)} {
			sp = t.start("store.get", root, op.ID, k)
			_, _, err = st.Get(key)
			t.end(sp)
			if err != nil {
				return err
			}
		}

		if norm.Rounds > 0 {
			continue // episodes shard per round, not as one spec
		}
		sp = t.start("cluster.shard", root, op.ID, k)
		shards, err := scenario.ShardSpecs(norm, replayShards)
		t.end(sp)
		if err != nil {
			return err
		}
		parts := make([]*scenario.Result, len(shards))
		for i, sh := range shards {
			sp = t.start("cluster.shard_engine", root, op.ID, k)
			parts[i], err = scenario.Run(ctx, sh)
			t.end(sp)
			if err != nil {
				return err
			}
		}
		sp = t.start("cluster.merge", root, op.ID, k)
		merged, err := scenario.MergeShardResults(norm, parts)
		t.end(sp)
		if err != nil {
			return err
		}
		got, err := encodeResult(merged)
		if err != nil {
			return err
		}
		want, err := encodeResult(res)
		if err != nil {
			return err
		}
		if !bytes.Equal(got.Points, want.Points) || !bytes.Equal(got.Metrics, want.Metrics) || got.Text != want.Text {
			return fmt.Errorf("replay: merged %s (seed %d) differs from the single-node run", norm.Scenario, norm.Seed)
		}
	}
	return nil
}

// pathTerm is one layer on a workload's blocking path, with how many
// times a fresh op calls it.
type pathTerm struct {
	layer string
	calls float64
}

// servePath lists, per serve-* workload, the replayed layers a fresh op
// blocks on. The cluster engine term counts one shard run: the two
// equal-sized shards run in parallel, one on each worker.
var servePath = map[string][]pathTerm{
	"serve-sync": {
		{"scenario.decode", 1}, {"scenario.normalize", 1}, {"scenario.digest", 1},
		{"engine.untraced", 1}, {"render.table", 1},
	},
	"serve-jobs": {
		{"scenario.decode", 1}, {"scenario.normalize", 1}, {"scenario.digest", 1},
		{"engine.traced", 1}, {"encode.job", 1}, {"report.build", 1}, {"store.put", 2},
	},
	"serve-cluster": {
		{"scenario.decode", 1}, {"scenario.normalize", 1}, {"scenario.digest", 1},
		{"cluster.shard", 1}, {"cluster.shard_engine", 1}, {"cluster.merge", 1},
		{"render.table", 1}, {"encode.job", 1}, {"store.put", 1},
	},
}

// batchPath lists the layers one batch-corpus pass calls once per spec.
var batchPath = []string{"scenario.normalize", "engine.untraced", "render.table"}

// pathSum returns the sum of the replayed layer medians on the
// workload's fresh-op path, and a printable breakdown.
func (r *runner) pathSum(nspecs int) (float64, string) {
	var sum float64
	var b bytes.Buffer
	if r.workload == "batch-corpus" {
		for _, layer := range batchPath {
			var l float64
			for k := 0; k < nspecs; k++ {
				l += median(r.tr.durations(layer, k))
			}
			sum += l
			fmt.Fprintf(&b, "%s %.3f + ", layer, l)
		}
		return sum, b.String()
	}
	for _, term := range servePath[r.workload] {
		l := term.calls * r.tr.p50(term.layer)
		sum += l
		fmt.Fprintf(&b, "%s %.3f + ", term.layer, l)
	}
	return sum, b.String()
}

// Command e2ebench is hitl's end-to-end benchmark. It builds the system
// under test in-process from the repository's public packages, drives one
// workload with a single closed-loop caller for a fixed amount of timed
// work, checks every answer outside the timed intervals, and prints every
// metric with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	e2ebench --workload serve-sync --seed 7 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// stream with spans recorded around each call into a layer and reports the
// per-layer split. See README.md for the workloads and metrics.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hitl/internal/scenario"
	_ "hitl/internal/scenario/all" // register the built-in scenarios
	"hitl/internal/store"
)

// Workloads, in the order README.md describes them.
var workloads = []string{"batch-corpus", "serve-sync", "serve-jobs", "serve-cluster"}

// corpusDir holds the example specs, relative to the checkout root.
var corpusDir = filepath.Join("examples", "scenarios")

const (
	// setupBuilds is how many throwaway systems an untraced run builds
	// after its timed loop; setup_s is their median build time. setupGap
	// spaces them, so each build starts from an idle process, as a real
	// one does, and the median spans about a second of the machine rather
	// than one burst: the medians of back-to-back bursts moved by up to 70%
	// from one burst to the next, those of spaced builds by up to 30%.
	setupBuilds = 101
	setupGap    = 5 * time.Millisecond
	// warmup is the untimed op time run before measuring, so caches and
	// pools fill and the heap reaches its working size.
	warmup = time.Second
	// minOps is the fewest ops any timed loop runs.
	minOps = 8
	// replayOps bounds how many ops a traced run replays through the
	// layers (batch-corpus passes cost far more, so it replays fewer).
	replayOps      = 64
	replayOpsBatch = 4
	// engineReps is how many times the engine section runs each example.
	engineReps = 3
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one named, unit-carrying number, with a note printed beside
// it on the human-readable line.
type metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	note  string
}

// runner drives one workload against one built system.
type runner struct {
	workload string
	gen      *Gen
	sut      *sut
	tr       *tracer // nil when not tracing
	// first holds the first answer under each input key that a repeat may
	// still replay; kept orders the keys for eviction.
	first map[int]firstAnswer
	kept  []int
	// interpChecked is set once a batch pass has been re-run on the
	// interpreter.
	interpChecked bool
	errs          []string
}

// firstAnswer is the first answer under an input key: the bytes its
// repeats must reproduce and the subjects it simulated.
type firstAnswer struct {
	body     []byte
	subjects int
}

// loopStats accumulates one closed loop's ops.
type loopStats struct {
	fresh, repeat []float64 // latencies of completed ops, ms
	busy          time.Duration
	ops, failed   int
	subjects      int
	cached        int
	interpreted   int
	answers       int // answers with an engine path
	gcCycles      uint32
	allocBytes    uint64
	freshOps      []Op
}

// loop runs ops until their timed intervals add up to d (and at least
// minOps ran). The checks between ops are outside the timed intervals;
// with memstats, so are the runtime.MemStats reads around each op.
func (r *runner) loop(d time.Duration, memstats bool) loopStats {
	var ls loopStats
	var m0, m1 runtime.MemStats
	for ls.busy < d || ls.ops < minOps {
		op := r.gen.Next()
		if memstats {
			runtime.ReadMemStats(&m0)
		}
		out := r.do(op)
		if memstats {
			runtime.ReadMemStats(&m1)
			ls.gcCycles += m1.NumGC - m0.NumGC
			ls.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		}
		ls.busy += out.lat
		ls.ops++
		subjects, err := r.check(op, &out)
		if err != nil {
			ls.failed++
			r.fail(op, err)
			continue
		}
		ls.subjects += subjects
		ms := float64(out.lat) / float64(time.Millisecond)
		if op.Class == Fresh {
			ls.fresh = append(ls.fresh, ms)
			ls.freshOps = append(ls.freshOps, op)
		} else {
			ls.repeat = append(ls.repeat, ms)
		}
		if out.cached {
			ls.cached++
		}
		for _, path := range enginePaths(out) {
			ls.answers++
			if path == "interpreted" {
				ls.interpreted++
			}
		}
	}
	return ls
}

// enginePaths lists the engine path of every answer an op produced.
func enginePaths(out outcome) []string {
	if out.results == nil {
		return []string{out.engine}
	}
	var paths []string
	for _, res := range out.results {
		paths = append(paths, res.EnginePath)
	}
	return paths
}

func (r *runner) fail(op Op, err error) {
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf("op %d (%s of %d): %v", op.ID, op.Class, op.Of, err))
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same op stream")
	seconds := fs.Float64("seconds", 10, "timed op seconds to measure")
	traceFlag := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	scratch := fs.String("scratch", ".bench_build", "directory for this run's stores (removed at exit)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	if !known || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "e2ebench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloads, ", "))
		return 2
	}
	dir := filepath.Join(*scratch, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	// Flush pending writeback (a build's cache, an earlier run's deleted
	// stores) before measuring, and this run's own before exiting, so no
	// run's fsyncs queue behind another's.
	syscall.Sync()
	defer syscall.Sync()
	defer os.RemoveAll(dir)

	res, err := measure(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *traceFlag == 1, dir, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func measure(workload string, seed int64, d time.Duration, traced bool, dir string, stdout, stderr io.Writer) (*result, error) {
	corpus, names, err := loadCorpus(corpusDir)
	if err != nil {
		return nil, err
	}
	r := &runner{workload: workload, gen: NewGen(workload, seed, corpus), first: map[int]firstAnswer{}}
	var prefill loopStats
	fill := func(s *sut) {
		r.sut = s
		for _, op := range r.gen.Prefill() {
			out := r.do(op)
			prefill.ops++
			if _, err := r.check(op, &out); err != nil {
				prefill.failed++
				r.fail(op, err)
			}
		}
	}
	// serve-jobs fills its repeat pool through another server over the
	// same store, so the measured server's job table starts without it.
	storeDir := filepath.Join(dir, "store")
	if workload == "serve-jobs" {
		other, err := buildSUT(workload, storeDir)
		if err != nil {
			return nil, err
		}
		fill(other)
		other.close()
	}
	s, err := buildSUT(workload, storeDir)
	if err != nil {
		return nil, err
	}
	defer s.close()
	if workload != "serve-jobs" {
		fill(s)
	}
	r.sut = s

	warm := r.loop(warmup, false)
	fmt.Fprintf(stdout, "e2ebench %s seed=%d seconds=%g trace=%v GOMAXPROCS=%d %s\n",
		workload, seed, d.Seconds(), traced, runtime.GOMAXPROCS(0), runtime.Version())

	var ms []metric
	var timed loopStats
	if !traced {
		timed = r.loop(d, false)
		setups, err := setupTimes(workload, filepath.Join(dir, "setup"))
		if err != nil {
			return nil, err
		}
		if ms, err = endToEnd(timed, setups); err != nil {
			return nil, err
		}
	} else if ms, timed, err = r.perLayer(d, corpus, names, seed, dir, stdout); err != nil {
		return nil, err
	}
	res := &result{Metrics: map[string]metric{}}
	for _, m := range ms {
		res.Metrics[m.Name] = m
	}
	printMetrics(stdout, ms)

	res.Attempted = prefill.ops + warm.ops + timed.ops
	res.Failed = prefill.failed + warm.failed + timed.failed
	res.Correct = res.Failed == 0
	fmt.Fprintf(stdout, "ops: prefill %d, warm-up %d, timed %d (fresh %d, repeat %d); failed %d; fail_frac %.4f\n",
		prefill.ops, warm.ops, timed.ops, len(timed.fresh), len(timed.repeat), res.Failed,
		float64(res.Failed)/float64(res.Attempted))
	for _, e := range r.errs {
		fmt.Fprintf(stderr, "e2ebench: failed %s\n", e)
	}
	return res, nil
}

// setupTimes builds and closes the workload's system setupBuilds times,
// setupGap apart, each over a fresh store directory, and returns the build
// times in seconds. It runs after the timed loop, so no build disturbs a
// timed op, and starts from a collected heap, so no earlier op's garbage
// is swept inside a build.
func setupTimes(workload, dir string) ([]float64, error) {
	runtime.GC()
	times := make([]float64, 0, setupBuilds)
	for i := 0; i < setupBuilds; i++ {
		s, t, err := timedBuild(workload, filepath.Join(dir, strconv.Itoa(i)))
		if err != nil {
			return nil, err
		}
		s.close()
		times = append(times, t)
		time.Sleep(setupGap)
	}
	return times, nil
}

// endToEnd derives the end-to-end metrics of one timed loop.
func endToEnd(ls loopStats, setups []float64) ([]metric, error) {
	if len(ls.fresh) == 0 || len(ls.repeat) == 0 {
		return nil, fmt.Errorf("timed loop completed %d fresh and %d repeat ops; need both", len(ls.fresh), len(ls.repeat))
	}
	tl, err := tail(ls.fresh)
	if err != nil {
		return nil, err
	}
	busy := ls.busy.Seconds()
	completed := len(ls.fresh) + len(ls.repeat)
	rss, err := peakRSS()
	if err != nil {
		return nil, err
	}
	return []metric{
		{Name: "setup_s", Value: median(setups), Unit: "s", note: fmt.Sprintf("median of %d set-ups", len(setups))},
		{Name: "ops_per_s", Value: float64(completed) / busy, Unit: "1/s",
			note: fmt.Sprintf("%d completed ops in %.3f timed s", completed, busy)},
		{Name: "subjects_per_s", Value: float64(ls.subjects) / busy, Unit: "1/s",
			note: fmt.Sprintf("%d subjects simulated in the timed ops", ls.subjects)},
		{Name: "latency_p50_ms", Value: median(ls.fresh), Unit: "ms", note: fmt.Sprintf("fresh, n=%d", len(ls.fresh))},
		{Name: "latency_tail_ms", Value: tl.Value, Unit: "ms",
			note: fmt.Sprintf("fresh p%g, n=%d, %d beyond", tl.P, tl.N, tl.Beyond)},
		{Name: "repeat_p50_ms", Value: median(ls.repeat), Unit: "ms", note: fmt.Sprintf("repeat, n=%d", len(ls.repeat))},
		{Name: "rss_peak_mb", Value: rss, Unit: "MB", note: "VmHWM"},
	}, nil
}

func printMetrics(w io.Writer, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(w, "  %-44s %14.6g %-14s %s\n", m.Name, m.Value, m.Unit, m.note)
	}
}

// perLayer runs the traced measurement: an untraced half and a traced
// half of the timed loop, a replay of sampled fresh ops through the
// layers, and the engine section.
func (r *runner) perLayer(d time.Duration, corpus []scenario.Spec, names []string, seed int64, dir string, stdout io.Writer) ([]metric, loopStats, error) {
	untraced := r.loop(d/2, false)
	hits0, miss0, err := r.workerCache()
	if err != nil {
		return nil, untraced, err
	}
	r.tr = newTracer()
	traced := r.loop(d/2, true)
	hits1, miss1, err := r.workerCache()
	if err != nil {
		return nil, untraced, err
	}
	all := untraced
	all.ops += traced.ops
	all.failed += traced.failed
	all.fresh = append(all.fresh, traced.fresh...)
	all.repeat = append(all.repeat, traced.repeat...)
	if len(untraced.fresh) == 0 || len(traced.fresh) == 0 {
		return nil, all, fmt.Errorf("traced run completed no fresh ops")
	}

	st, err := store.Open(filepath.Join(dir, "replay-store"))
	if err != nil {
		return nil, all, err
	}
	want := replayOps
	if r.workload == "batch-corpus" {
		want = replayOpsBatch
	}
	sample := evenly(traced.freshOps, want)
	for _, op := range sample {
		if err := r.replay(op, st); err != nil {
			all.failed++
			r.fail(op, err)
		}
	}

	rows, err := engineSection(corpus, names, seed)
	if err != nil {
		return nil, all, err
	}

	var ms []metric
	interp := 0
	for _, row := range rows {
		ms = append(ms,
			metric{Name: "engine." + row.name + ".ms", Value: row.ms, Unit: "ms", note: row.path},
			metric{Name: "engine." + row.name + ".allocs_per_subject", Value: row.allocs, Unit: "allocs/subject", note: row.path})
		if row.path == "interpreted" {
			interp++
		}
	}
	t := r.tr
	ms = append(ms,
		metric{Name: "engine.interpreted_frac", Value: float64(interp) / float64(len(rows)), Unit: "frac",
			note: fmt.Sprintf("%d of %d examples", interp, len(rows))},
		metric{Name: "engine.untraced_ms", Value: t.p50("engine.untraced"), Unit: "ms"},
		metric{Name: "engine.traced_ms", Value: t.p50("engine.traced"), Unit: "ms",
			note: fmt.Sprintf("%d-trace recorder", jobTraceSample)},
		metric{Name: "scenario.decode_us", Value: 1e3 * t.p50("scenario.decode"), Unit: "us"},
		metric{Name: "scenario.normalize_us", Value: 1e3 * t.p50("scenario.normalize"), Unit: "us"},
		metric{Name: "scenario.digest_us", Value: 1e3 * t.p50("scenario.digest"), Unit: "us"},
		metric{Name: "render.table_us", Value: 1e3 * t.p50("render.table"), Unit: "us"},
		metric{Name: "encode.job_us", Value: 1e3 * t.p50("encode.job"), Unit: "us"},
		metric{Name: "report.build_us", Value: 1e3 * t.p50("report.build"), Unit: "us"},
		metric{Name: "store.put_ms", Value: t.p50("store.put"), Unit: "ms", note: "fsync'd"},
		metric{Name: "store.get_us", Value: 1e3 * t.p50("store.get"), Unit: "us"},
		metric{Name: "cluster.shard_us", Value: 1e3 * t.p50("cluster.shard"), Unit: "us"},
		metric{Name: "cluster.shard_engine_ms", Value: t.p50("cluster.shard_engine"), Unit: "ms",
			note: fmt.Sprintf("one of %d shards", replayShards)},
		metric{Name: "cluster.merge_us", Value: 1e3 * t.p50("cluster.merge"), Unit: "us"},
	)

	p50 := median(traced.fresh)
	sum, breakdown := r.pathSum(len(sample[0].Specs))
	ms = append(ms, metric{Name: "server.residual_ms", Value: p50 - sum, Unit: "ms",
		note: fmt.Sprintf("= latency_p50 %.3f - layers %.3f", p50, sum)})
	fmt.Fprintf(stdout, "path: %sresidual %.3f = latency_p50_ms %.3f (traced, fresh n=%d)\n",
		breakdown, p50-sum, p50, len(traced.fresh))

	hitFrac := float64(traced.cached) / float64(traced.ops)
	hitNote := fmt.Sprintf("%d of %d ops", traced.cached, traced.ops)
	if r.workload == "serve-cluster" {
		hits, lookups := hits1-hits0, hits1-hits0+miss1-miss0
		hitFrac = float64(hits) / float64(max(lookups, 1))
		hitNote = fmt.Sprintf("%d of %d worker shard lookups", hits, lookups)
	}
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ms = append(ms,
		metric{Name: "server.cache_hit_frac", Value: hitFrac, Unit: "frac", note: hitNote},
		metric{Name: "serve.interpreted_frac", Value: float64(traced.interpreted) / float64(max(traced.answers, 1)),
			Unit: "frac", note: fmt.Sprintf("%d of %d answers", traced.interpreted, traced.answers)},
		metric{Name: "gc.cycles_per_op", Value: float64(traced.gcCycles) / float64(traced.ops), Unit: "cycles/op",
			note: fmt.Sprintf("GOGC default, %d ops", traced.ops)},
		metric{Name: "alloc.bytes_per_op", Value: float64(traced.allocBytes) / float64(traced.ops), Unit: "B/op"},
		metric{Name: "bench.trace_overhead_frac", Value: p50/median(untraced.fresh) - 1, Unit: "frac",
			note: fmt.Sprintf("traced p50 %.3f vs untraced %.3f ms", p50, median(untraced.fresh))},
	)
	sort.Slice(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name })
	return ms, all, nil
}

// evenly picks up to k ops spread evenly over ops.
func evenly(ops []Op, k int) []Op {
	if len(ops) <= k {
		return ops
	}
	out := make([]Op, k)
	for i := range out {
		out[i] = ops[i*len(ops)/k]
	}
	return out
}

// workerCache sums the result-cache hit and miss counters of
// serve-cluster's workers; other workloads have none and report zeros.
func (r *runner) workerCache() (hits, misses int64, err error) {
	for _, w := range r.sut.workers {
		resp, err := r.sut.client.Get(w + "/v1/metrics")
		if err != nil {
			return 0, 0, err
		}
		_, body, err := readAll(resp)
		if err != nil {
			return 0, 0, err
		}
		if resp.StatusCode != http.StatusOK {
			return 0, 0, fmt.Errorf("worker metrics: status %d", resp.StatusCode)
		}
		sc := bufio.NewScanner(strings.NewReader(string(body)))
		for sc.Scan() {
			f := strings.Fields(sc.Text())
			if len(f) != 2 {
				continue
			}
			v, _ := strconv.ParseInt(f[1], 10, 64)
			switch f[0] {
			case "hitl_server_cache_hits":
				hits += v
			case "hitl_server_cache_misses":
				misses += v
			}
		}
	}
	return hits, misses, nil
}

// engineRow is one example spec's engine measurement.
type engineRow struct {
	name, path string
	ms, allocs float64
}

// engineSection runs every example spec at batch-corpus scale engineReps
// times and reports the median time and heap allocations per requested
// subject (runtime.MemStats deltas), with the engine path it took.
func engineSection(corpus []scenario.Spec, names []string, seed int64) ([]engineRow, error) {
	rng := rand.New(rand.NewSource(seed))
	var rows []engineRow
	var m0, m1 runtime.MemStats
	for i, c := range corpus {
		sp := c
		sp.N = c.N * batchScale
		row := engineRow{name: names[i]}
		var times, allocs []float64
		for rep := 0; rep < engineReps; rep++ {
			sp.Seed = rng.Int63()
			norm, err := scenario.Normalize(sp)
			if err != nil {
				return nil, err
			}
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			res, err := scenario.Run(context.Background(), norm)
			dt := time.Since(t0)
			runtime.ReadMemStats(&m1)
			if err != nil {
				return nil, err
			}
			times = append(times, float64(dt)/float64(time.Millisecond))
			allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(norm.N*len(res.Points)))
			row.path = res.EnginePath
		}
		row.ms, row.allocs = median(times), median(allocs)
		rows = append(rows, row)
	}
	return rows, nil
}

// peakRSS reads the process's peak resident set (VmHWM) in MB.
func peakRSS() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading VmHWM: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

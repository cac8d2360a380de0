package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"hitl/internal/scenario"
)

// Class is the generator's label for an op. Fresh ops carry inputs no
// earlier op used; repeat ops replay an earlier op's inputs exactly. The
// class is assigned here, never inferred from a response header.
type Class int

const (
	Fresh Class = iota
	Repeat
)

func (c Class) String() string {
	if c == Repeat {
		return "repeat"
	}
	return "fresh"
}

// Op is one unit of client work: one batch pass over the corpus, or one
// request sequence against a server.
type Op struct {
	ID    int
	Class Class
	// Of is the key of the inputs a repeat replays, and a fresh op's own
	// key. Repeats compare their answer with the first answer under Of.
	Of    int
	Specs []scenario.Spec
	// Bodies are the request bodies, one per spec, exactly as sent.
	Bodies [][]byte
}

// Stream shape. One op in every block of blockLen is a repeat.
const (
	blockLen = 4
	// serveMinN and serveMaxN bound the subject count of a serve-* spec:
	// large enough that the engine, not wake-ups or fsyncs, dominates an
	// op, and narrow enough that a run's p50 barely depends on which n
	// values its seed drew.
	serveMinN = 5000
	serveMaxN = 7000
	// clusterMinN and clusterMaxN bound a serve-cluster spec's n, twice
	// the serve-* range, and clusterWorkers is its engine parallelism.
	// Each of the two shards then runs single-threaded on its own core for
	// about as long as a serve-sync engine run, so the shard engines
	// outweigh the hand-offs and the fsync of an op, and the op waits on
	// two goroutines rather than on four contending for two cores.
	clusterMinN    = 11000
	clusterMaxN    = 13000
	clusterWorkers = 1
	// recentWindow is how many recent fresh ops a serve-sync repeat
	// draws from. Each fresh op adds one entry to the server's 128-entry
	// result LRU, so every repeat target is still cached.
	recentWindow = 32
	// jobsPool and clusterPool are how many pre-filled specs serve-jobs
	// and serve-cluster repeats cycle through, oldest first; a pool spec
	// comes round again only after at least blockLen*(pool-1)+1 ops.
	//
	// serve-jobs fills its pool on another server over the same store, so
	// the pool's jobs start outside the job table. Each op adds one entry
	// to the 256-entry table, and 285 ops pass before a spec repeats, so a
	// repeat's job has always left the table and its answer is re-read
	// from the store.
	//
	// serve-cluster fills its pool on the system it measures (its answers
	// name the worker URLs). Each op adds two shard entries across the
	// two workers' 128-entry LRUs, one per worker on average, and at least
	// clusterPool ops separate a spec's first answer from its repeat, so a
	// repeat's shards have left the LRUs and the repeat recomputes (a
	// worker the ring gives a small arc can keep one; the traced run's
	// server.cache_hit_frac counts it).
	jobsPool    = 72
	clusterPool = 192
	// batchScale multiplies each example spec's n in batch-corpus, so a
	// pass takes about 0.1 s and a 10 s run has 50-100 fresh passes: the
	// tail stays on the p75 rung of the ladder.
	batchScale = 3
	// batchWindow is how many recent passes a batch-corpus repeat draws
	// from.
	batchWindow = 8
)

// Gen deterministically generates one workload's op stream from a seed.
type Gen struct {
	workload string
	rng      *rand.Rand
	corpus   []scenario.Spec

	next     int
	slot     int   // position of the repeat within the current block
	fresh    []int // keys of recent fresh ops, oldest first
	inputs   map[int]Op
	pool     []Op
	poolNext int
}

// NewGen returns the generator for workload. corpus is the batch-corpus
// template (the example specs, normalized); other workloads ignore it.
func NewGen(workload string, seed int64, corpus []scenario.Spec) *Gen {
	g := &Gen{workload: workload, rng: rand.New(rand.NewSource(seed)), corpus: corpus, inputs: map[int]Op{}}
	pool := map[string]int{"serve-jobs": jobsPool, "serve-cluster": clusterPool}[workload]
	for i := 0; i < pool; i++ {
		g.pool = append(g.pool, g.freshOp(-1-i))
	}
	return g
}

// Prefill returns the ops whose answers must exist before the stream
// starts: the serve-jobs and serve-cluster repeat pool, in order. Other
// workloads have none.
func (g *Gen) Prefill() []Op { return g.pool }

// Next returns the next op of the stream.
func (g *Gen) Next() Op {
	id := g.next
	g.next++
	pos := id % blockLen
	if pos == 0 {
		g.slot = g.rng.Intn(blockLen)
		if id == 0 && g.pool == nil {
			g.slot = 1 + g.rng.Intn(blockLen-1) // nothing to repeat yet
		}
	}
	if pos != g.slot {
		op := g.freshOp(id)
		g.remember(op)
		return op
	}
	var src Op
	if g.pool != nil {
		src = g.pool[g.poolNext%len(g.pool)]
		g.poolNext++
	} else {
		src = g.inputs[g.fresh[g.rng.Intn(len(g.fresh))]]
	}
	src.ID, src.Class = id, Repeat
	return src
}

// remember keeps a fresh op's inputs while repeats may still draw them:
// the last recentWindow (batchWindow for batch-corpus) fresh ops.
func (g *Gen) remember(op Op) {
	window := recentWindow
	if g.workload == "batch-corpus" {
		window = batchWindow
	}
	g.fresh = append(g.fresh, op.Of)
	g.inputs[op.Of] = op
	if len(g.fresh) > window {
		delete(g.inputs, g.fresh[0])
		g.fresh = g.fresh[1:]
	}
}

// freshOp draws new inputs under key.
func (g *Gen) freshOp(key int) Op {
	op := Op{ID: key, Class: Fresh, Of: key}
	if g.workload == "batch-corpus" {
		seed := g.rng.Int63()
		for i, c := range g.corpus {
			sp := c
			sp.N = c.N * batchScale
			sp.Seed = seed + int64(i)
			op.Specs = append(op.Specs, sp)
		}
	} else {
		lo, hi, workers := serveMinN, serveMaxN, 0
		if g.workload == "serve-cluster" {
			lo, hi, workers = clusterMinN, clusterMaxN, clusterWorkers
		}
		op.Specs = []scenario.Spec{{
			Scenario: "phishing-study",
			N:        lo + g.rng.Intn(hi-lo+1),
			Seed:     g.rng.Int63(),
			Workers:  workers,
		}}
	}
	for _, sp := range op.Specs {
		body, err := json.Marshal(sp)
		if err != nil {
			panic(fmt.Sprintf("gen: encoding a generated spec: %v", err)) // a Spec always encodes
		}
		op.Bodies = append(op.Bodies, body)
	}
	return op
}

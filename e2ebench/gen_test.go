package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"hitl/internal/scenario"
)

func testCorpus(t *testing.T) []scenario.Spec {
	t.Helper()
	specs, _, err := loadCorpus(filepath.Join("..", "examples", "scenarios"))
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

// stream renders a generator's pre-fill and first n ops as the bytes a
// client would send, with each op's class and input key.
func stream(g *Gen, n int) []byte {
	var b bytes.Buffer
	ops := append([]Op(nil), g.Prefill()...)
	for i := 0; i < n; i++ {
		ops = append(ops, g.Next())
	}
	for _, op := range ops {
		fmt.Fprintf(&b, "%d %s %d\n", op.ID, op.Class, op.Of)
		for _, body := range op.Bodies {
			b.Write(body)
			b.WriteByte('\n')
		}
	}
	return b.Bytes()
}

func TestGenSameSeedSameStream(t *testing.T) {
	corpus := testCorpus(t)
	for _, w := range workloads {
		a := stream(NewGen(w, 42, corpus), 600)
		b := stream(NewGen(w, 42, corpus), 600)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 42 gave two different streams", w)
		}
		if c := stream(NewGen(w, 43, corpus), 600); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 42 and 43 gave the same stream", w)
		}
	}
}

func TestGenOneRepeatPerBlock(t *testing.T) {
	corpus := testCorpus(t)
	for _, w := range workloads {
		g := NewGen(w, 7, corpus)
		seen := map[int][][]byte{}
		for _, op := range g.Prefill() {
			seen[op.Of] = op.Bodies
		}
		repeats := 0
		for i := 0; i < 4000; i++ {
			op := g.Next()
			if op.ID != i {
				t.Fatalf("%s: op %d has ID %d", w, i, op.ID)
			}
			if op.Class == Fresh {
				if _, dup := seen[op.Of]; dup {
					t.Fatalf("%s: fresh op %d reuses key %d", w, i, op.Of)
				}
				seen[op.Of] = op.Bodies
			} else {
				repeats++
				first, ok := seen[op.Of]
				if !ok {
					t.Fatalf("%s: repeat op %d replays unknown key %d", w, i, op.Of)
				}
				for k := range first {
					if !bytes.Equal(first[k], op.Bodies[k]) {
						t.Fatalf("%s: repeat op %d does not replay key %d's bodies", w, i, op.Of)
					}
				}
			}
			if i%blockLen == blockLen-1 && repeats != (i+1)/blockLen {
				t.Fatalf("%s: %d repeats in the first %d ops, want one per block of %d", w, repeats, i+1, blockLen)
			}
		}
	}
}

// TestGenPlacesRepeatsAgainstCaches checks the repeat working sets: a
// serve-sync repeat replays one of the last recentWindow fresh ops, well
// inside the server's 128-entry LRU; a serve-jobs repeat's job has been
// pushed out of the 256-entry job table; a serve-cluster repeat comes at
// least clusterPool ops after its first answer, so its shards have left
// the workers' LRUs.
func TestGenPlacesRepeatsAgainstCaches(t *testing.T) {
	corpus := testCorpus(t)

	g := NewGen("serve-sync", 3, corpus)
	var freshKeys []int
	for i := 0; i < 4000; i++ {
		op := g.Next()
		if op.Class == Fresh {
			freshKeys = append(freshKeys, op.Of)
			continue
		}
		age := 0
		for k := len(freshKeys) - 1; k >= 0 && freshKeys[k] != op.Of; k-- {
			age++
		}
		if age >= recentWindow {
			t.Fatalf("serve-sync op %d repeats a spec %d fresh ops old, want under %d", i, age, recentWindow)
		}
	}

	for _, tc := range []struct {
		workload string
		minGap   int // ops that must separate two touches of one spec
	}{{"serve-jobs", 257}, {"serve-cluster", clusterPool}} {
		g := NewGen(tc.workload, 3, corpus)
		pool := len(g.Prefill())
		last := map[int]int{}
		if tc.workload == "serve-cluster" {
			// The pool is answered by the measured system just before op
			// 0; serve-jobs answers it on another server.
			for i, op := range g.Prefill() {
				last[op.Of] = i - pool
			}
		}
		for i := 0; i < 4000; i++ {
			op := g.Next()
			if op.Class != Repeat {
				continue
			}
			if op.Of >= 0 {
				t.Fatalf("%s op %d repeats fresh op %d, want a pool spec", tc.workload, i, op.Of)
			}
			if prev, ok := last[op.Of]; ok && i-prev < tc.minGap {
				t.Fatalf("%s op %d repeats a spec touched %d ops before, want at least %d", tc.workload, i, i-prev, tc.minGap)
			}
			last[op.Of] = i
		}
	}
}

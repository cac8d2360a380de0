package cluster

import (
	"fmt"
	"testing"
)

func TestRingSequenceProperties(t *testing.T) {
	nodes := []string{"http://a", "http://b", "http://c", "http://d"}
	r, err := newRing(nodes)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		seq := r.sequence(fmt.Sprintf("shard-%d", i))
		if len(seq) != len(nodes) {
			t.Fatalf("sequence length %d, want %d", len(seq), len(nodes))
		}
		seen := map[string]bool{}
		for _, n := range seq {
			if seen[n] {
				t.Fatalf("node %s appears twice in sequence", n)
			}
			seen[n] = true
		}
	}
}

func TestRingPlacementStable(t *testing.T) {
	nodes := []string{"http://a", "http://b", "http://c"}
	r1, _ := newRing(nodes)
	r2, _ := newRing(nodes)
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("digest-%d", i)
		a, b := r1.sequence(key), r2.sequence(key)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("key %s: placement differs between identical rings", key)
			}
		}
	}
}

func TestRingRemovalOnlyMovesVictimsShards(t *testing.T) {
	all := []string{"http://a", "http://b", "http://c", "http://d"}
	without := []string{"http://a", "http://b", "http://d"}
	rAll, _ := newRing(all)
	rLess, _ := newRing(without)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("digest-%d", i)
		before := rAll.sequence(key)[0]
		after := rLess.sequence(key)[0]
		if before != "http://c" && after != before {
			t.Fatalf("key %s moved %s -> %s though its node survived", key, before, after)
		}
		if before == "http://c" && after != rAll.sequence(key)[1] {
			t.Fatalf("key %s: evicted shard went to %s, want next ring position %s",
				key, after, rAll.sequence(key)[1])
		}
	}
}

func TestRingSpreadsLoad(t *testing.T) {
	nodes := []string{"http://a", "http://b", "http://c"}
	r, _ := newRing(nodes)
	counts := map[string]int{}
	const keys = 3000
	for i := 0; i < keys; i++ {
		counts[r.sequence(fmt.Sprintf("k%d", i))[0]]++
	}
	for n, c := range counts {
		// With 64 vnodes per worker, per-node share should be within a
		// loose 2x band of even.
		if c < keys/len(nodes)/2 || c > keys*2/len(nodes) {
			t.Errorf("node %s got %d of %d keys — load badly skewed", n, c, keys)
		}
	}
}

func TestRingErrors(t *testing.T) {
	if _, err := newRing(nil); err == nil {
		t.Error("empty ring: want error")
	}
	if _, err := newRing([]string{"http://a", "http://a"}); err == nil {
		t.Error("duplicate node: want error")
	}
}

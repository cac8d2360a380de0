package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Consistent-hash placement: each worker owns many pseudo-random arcs of
// a 64-bit ring (virtual nodes flatten the load imbalance of one arc per
// worker), and a shard lands on the owner of the first arc at or after
// its key's hash. Two properties matter here. Stability: the same shard
// key maps to the same worker across runs and coordinator restarts, so
// worker-side caches stay warm. Locality of failure: removing a worker
// reassigns only its own arcs — every other shard stays put, which is
// what makes failover cheap.

// ring is an immutable consistent-hash ring over worker URLs. Membership
// is the configured pool; health is not baked in — callers filter the
// preference sequence against live health state at dispatch time, so a
// recovered node resumes its old arcs without any rebuild.
type ring struct {
	hashes []uint64
	owners []string // owners[i] owns arc ending at hashes[i]
	nodes  []string
}

// replicas is the virtual-node count per worker: enough to keep
// per-worker load within a few percent of even for small pools, cheap
// enough that ring construction is microseconds.
const replicas = 64

func newRing(nodes []string) (*ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	seen := make(map[string]bool, len(nodes))
	r := &ring{}
	for _, n := range nodes {
		if seen[n] {
			return nil, fmt.Errorf("cluster: duplicate worker %q", n)
		}
		seen[n] = true
		r.nodes = append(r.nodes, n)
		for v := 0; v < replicas; v++ {
			r.hashes = append(r.hashes, hash64(fmt.Sprintf("%s#%d", n, v)))
			r.owners = append(r.owners, n)
		}
	}
	sort.Sort(r)
	return r, nil
}

// sort.Interface over (hashes, owners) in lockstep.
func (r *ring) Len() int           { return len(r.hashes) }
func (r *ring) Less(i, j int) bool { return r.hashes[i] < r.hashes[j] }
func (r *ring) Swap(i, j int) {
	r.hashes[i], r.hashes[j] = r.hashes[j], r.hashes[i]
	r.owners[i], r.owners[j] = r.owners[j], r.owners[i]
}

// sequence returns every node exactly once, in the key's ring order: the
// key's owner first, then each distinct successor. Index 0 is the
// preferred placement; the rest is the failover order, so "next ring
// position" is simply the next entry.
func (r *ring) sequence(key string) []string {
	h := hash64(key)
	start := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	out := make([]string, 0, len(r.nodes))
	seen := make(map[string]bool, len(r.nodes))
	for i := 0; i < len(r.hashes) && len(out) < len(r.nodes); i++ {
		n := r.owners[(start+i)%len(r.hashes)]
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// hash64 is FNV-1a, the stdlib's stable non-cryptographic hash: placement
// must not drift across processes or Go versions (maphash is seeded
// per-process, so it cannot serve here).
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"hitl/internal/core"
	"hitl/internal/telemetry"
)

// resultCache is a bounded LRU over fully rendered JSON response bodies.
// Every cacheable endpoint is deterministic — an experiment run is a pure
// function of (id, seed, n) and a process run of (spec, passes) — so a
// repeated request can be answered byte-for-byte from memory without
// re-running the Monte Carlo engine. Only complete 200 responses are
// stored; error responses and requests that carry per-request telemetry
// (?trace_sample, ?spans=1) bypass the cache entirely.
//
// Capacity is bounded two ways: an entry count (max) and a byte budget
// (maxBytes) over the cached bodies. The byte budget is what actually
// protects memory — one multi-megabyte sweep body is not the same load as
// a tiny run — and eviction walks the LRU tail until both bounds hold. A
// body larger than the whole byte budget is never admitted (caching it
// would evict everything else for a single entry).
type resultCache struct {
	mu       sync.Mutex
	max      int
	maxBytes int64 // <= 0: no byte bound
	curBytes int64
	ll       *list.List // front = most recently used
	items    map[string]*list.Element

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type cacheEntry struct {
	key  string
	body []byte
	// engine records which engine path produced the body (scenario runs
	// only; empty elsewhere), so cache hits can re-serve the X-Engine
	// header the original computation sent.
	engine string
}

func newResultCache(max int, maxBytes int64) *resultCache {
	return &resultCache{
		max:      max,
		maxBytes: maxBytes,
		ll:       list.New(),
		items:    make(map[string]*list.Element, max),
	}
}

// get returns the cached body and engine marker for key, promoting it to
// most recently used.
func (c *resultCache) get(key string) (body []byte, engine string, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.items[key]
	if !found {
		c.misses.Add(1)
		return nil, "", false
	}
	c.ll.MoveToFront(el)
	c.hits.Add(1)
	e := el.Value.(*cacheEntry)
	return e.body, e.engine, true
}

// put stores body (with its producing engine path, empty for endpoints
// without one) under key, evicting least-recently-used entries until both
// the entry-count and byte bounds hold.
func (c *resultCache) put(key string, body []byte, engine string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.maxBytes > 0 && int64(len(body)) > c.maxBytes {
		return // admitting it would evict the entire cache for one entry
	}
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		c.curBytes += int64(len(body)) - int64(len(e.body))
		e.body = body
		e.engine = engine
	} else {
		c.items[key] = c.ll.PushFront(&cacheEntry{key: key, body: body, engine: engine})
		c.curBytes += int64(len(body))
	}
	for c.ll.Len() > c.max || (c.maxBytes > 0 && c.curBytes > c.maxBytes) {
		oldest := c.ll.Back()
		if oldest == nil {
			break
		}
		c.ll.Remove(oldest)
		e := oldest.Value.(*cacheEntry)
		delete(c.items, e.key)
		c.curBytes -= int64(len(e.body))
		c.evictions.Add(1)
		telemetry.Flight.Record(telemetry.EventCacheEvict, e.key)
	}
}

func (c *resultCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

func (c *resultCache) bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.curBytes
}

// writeMetrics appends the cache counters to a /v1/metrics scrape.
func (c *resultCache) writeMetrics(w io.Writer) error {
	var b strings.Builder
	b.WriteString("# HELP hitl_server_cache_hits Result-cache lookups answered from memory.\n")
	b.WriteString("# TYPE hitl_server_cache_hits counter\n")
	fmt.Fprintf(&b, "hitl_server_cache_hits %d\n", c.hits.Load())
	b.WriteString("# HELP hitl_server_cache_misses Result-cache lookups that missed.\n")
	b.WriteString("# TYPE hitl_server_cache_misses counter\n")
	fmt.Fprintf(&b, "hitl_server_cache_misses %d\n", c.misses.Load())
	b.WriteString("# HELP hitl_server_cache_evictions Entries evicted to stay within the capacity bounds.\n")
	b.WriteString("# TYPE hitl_server_cache_evictions counter\n")
	fmt.Fprintf(&b, "hitl_server_cache_evictions %d\n", c.evictions.Load())
	b.WriteString("# HELP hitl_server_cache_entries Entries currently cached.\n")
	b.WriteString("# TYPE hitl_server_cache_entries gauge\n")
	fmt.Fprintf(&b, "hitl_server_cache_entries %d\n", c.size())
	b.WriteString("# HELP hitl_server_cache_bytes Bytes of response bodies currently cached.\n")
	b.WriteString("# TYPE hitl_server_cache_bytes gauge\n")
	fmt.Fprintf(&b, "hitl_server_cache_bytes %d\n", c.bytes())
	_, err := io.WriteString(w, b.String())
	return err
}

// experimentCacheKey keys an experiment run by everything that determines
// its output. Seed defaulting happens before keying, so an explicit
// seed=20080124 and an omitted seed share one entry.
func experimentCacheKey(id string, seed int64, n int) string {
	return fmt.Sprintf("experiments/run|%s|%d|%d", id, seed, n)
}

// processCacheKey hashes the canonical JSON form of the spec plus the
// effective pass count. Hashing keeps keys bounded no matter how large the
// submitted spec is. ok=false means the spec could not be keyed (it failed
// to marshal); the caller must skip the cache for that request — a shared
// sentinel key would collide every unkeyable spec onto one entry and serve
// one spec's body for another's.
func processCacheKey(spec core.SystemSpec, passes int) (key string, ok bool) {
	raw, err := json.Marshal(spec)
	if err != nil {
		return "", false // unkeyable spec: skip caching, never fail the request
	}
	sum := sha256.Sum256(raw)
	return fmt.Sprintf("process|%d|%s", passes, hex.EncodeToString(sum[:])), true
}

// serveCached answers the request from the cache if possible, reporting
// whether it did. A disabled cache or empty key always reports false.
func (s *Server) serveCached(w http.ResponseWriter, key string) bool {
	if s.cache == nil || key == "" {
		return false
	}
	body, engine, ok := s.cache.get(key)
	if !ok {
		return false
	}
	if engine != "" {
		// A cache hit re-serves the original computation's engine path:
		// the cached body was produced exactly once, by that engine.
		w.Header().Set("X-Engine", engine)
	}
	w.Header().Set("X-Cache", "hit")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
	return true
}

// writeCacheableJSON renders v exactly as writeJSON would, stores the body
// under key (tagged with the engine path that produced it, empty for
// endpoints without one), and serves it with an X-Cache: miss marker.
// With the cache disabled or an empty key it is a plain 200 JSON write.
func (s *Server) writeCacheableJSON(w http.ResponseWriter, key, engine string, v any) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	body = append(body, '\n') // match json.Encoder's trailing newline
	if s.cache != nil && key != "" {
		s.cache.put(key, body, engine)
		w.Header().Set("X-Cache", "miss")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

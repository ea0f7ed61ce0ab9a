package serve

import (
	"container/list"
	"math"
	"sync"
)

// DefaultDecisionCacheCapacity bounds a cache built with capacity <= 0.
// Entries are a ~50-byte key plus an int, so the default costs well under
// a megabyte while covering a large working set of distinct inputs.
const DefaultDecisionCacheCapacity = 8192

// CacheOptions configures the decision cache.
type CacheOptions struct {
	// Capacity bounds the cache (entries; <= 0 selects
	// DefaultDecisionCacheCapacity).
	Capacity int
	// Disable turns the decision cache off — the A/B escape hatch; labels
	// are identical either way (test-enforced).
	Disable bool
	// QuantizeBits, when in 1..52, zeroes that many low mantissa bits of
	// each feature value before the cache key is fingerprinted, bucketing
	// near-duplicate inputs onto one entry so they share its label. This
	// raises hit rates on workloads whose inputs differ only in noise, BUT
	// it is an explicit opt-in that trades away the bit-identical
	// guarantee: a hit may return the label computed for a bucket
	// neighbour, which a decision-boundary-straddling bucket can make
	// differ from the label the exact walk would produce. 0 (the default)
	// keys on exact feature bits and never changes an answer.
	QuantizeBits int
}

// maxQuantizeBits is the widest meaningful bucket: zeroing all 52 mantissa
// bits keys on sign+exponent alone.
const maxQuantizeBits = 52

// clampQuantizeBits normalizes a requested mantissa truncation.
func clampQuantizeBits(bits int) int {
	if bits <= 0 {
		return 0
	}
	if bits > maxQuantizeBits {
		return maxQuantizeBits
	}
	return bits
}

// quantizeRow buckets feature values in place by zeroing the low bits of
// their float64 representations. bits == 0 is the identity (the exact,
// bit-identical default path).
func quantizeRow(bits int, vals []float64) {
	if bits <= 0 {
		return
	}
	mask := ^uint64(0) << uint(bits)
	for i, v := range vals {
		vals[i] = math.Float64frombits(math.Float64bits(v) & mask)
	}
}

// DecisionCache is a bounded LRU from feature-vector fingerprints to
// predicted landmarks. Keys are built by the Service with
// engine.Fingerprint over the snapshot generation and the EXACT bit
// patterns of the extracted feature values (Float64bits is the quantizer),
// and feature extraction is deterministic, so two requests sharing a key
// would necessarily receive the same prediction — a hit skips the
// classifier walk without ever changing an answer. Including the
// generation in the key makes a hot reload an implicit cache flush:
// entries from the superseded model can no longer be referenced.
//
// The nil *DecisionCache is valid and disables caching (every Get misses,
// Put is a no-op) — the escape hatch the parity tests and inputtuned
// -no-cache use.
type DecisionCache struct {
	mu      sync.Mutex
	cap     int
	byKey   map[string]*list.Element
	recency list.List // front = most recently used

	hits, misses, evictions uint64
}

type decisionEntry struct {
	key   string
	label int
}

// NewDecisionCache returns a cache bounded at capacity entries (<= 0
// selects DefaultDecisionCacheCapacity).
func NewDecisionCache(capacity int) *DecisionCache {
	if capacity <= 0 {
		capacity = DefaultDecisionCacheCapacity
	}
	return &DecisionCache{cap: capacity, byKey: make(map[string]*list.Element)}
}

// Get returns the cached landmark for key, refreshing its recency.
func (c *DecisionCache) Get(key string) (label int, ok bool) {
	if c == nil {
		return 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses++
		return 0, false
	}
	c.hits++
	c.recency.MoveToFront(el)
	return el.Value.(*decisionEntry).label, true
}

// Put stores the landmark for key, evicting the least recently used entry
// when the cache is full. Storing an existing key refreshes it.
func (c *DecisionCache) Put(key string, label int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		el.Value.(*decisionEntry).label = label
		c.recency.MoveToFront(el)
		return
	}
	c.byKey[key] = c.recency.PushFront(&decisionEntry{key: key, label: label})
	for len(c.byKey) > c.cap {
		oldest := c.recency.Back()
		c.recency.Remove(oldest)
		delete(c.byKey, oldest.Value.(*decisionEntry).key)
		c.evictions++
	}
}

// DecisionCacheStats is a point-in-time effectiveness snapshot.
type DecisionCacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (s DecisionCacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats snapshots the counters. The nil cache reports zeros.
func (c *DecisionCache) Stats() DecisionCacheStats {
	if c == nil {
		return DecisionCacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return DecisionCacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Entries: len(c.byKey), Capacity: c.cap,
	}
}

// The per-flow fast path: a flat (tenant, srcMAC, dstMAC) →
// forwarding-decision cache in front of the routing machinery, modeled
// on ONCache's observation that an overlay matches its baseline by
// caching the *entire* per-packet decision, not just the route. A hit
// resolves the destination endpoint or link and the flow's accounting
// handles in one sharded map read — no tenant-table lookup, no
// route-cache probe, and no node-mutex acquisition — and hands the
// decision to the same executor (forward) a miss uses.
//
// Correctness rests on epoch-based invalidation: the node keeps a
// single atomic flow epoch, and every event that can change a
// forwarding answer bumps it — route churn and FailDest/RestoreDest
// (via the routing table's invalidation hook), link add/delete/replace,
// tenant key installs, endpoint detach, LINK TUNE retunes, fault-
// conduit installs, and UDP→TCP auto-upgrades. An entry records the
// epoch observed *before* its backing route lookup ran; a hit is valid
// only while the entry's epoch equals the current one, so an
// invalidation racing a fill can only strand an already-stale entry,
// never resurrect one. A stale flow-cache entry would be a silent
// cross-tenant or dead-link delivery; the churn, fuzz, and failover
// suites pin that this never happens.

package overlay

import (
	"sync"
	"sync/atomic"

	"vnetp/internal/core"
)

// defaultFlowCacheSize is the default total entry capacity across all
// shards (NodeConfig.FlowCacheSize zero value): generous for the
// paper's VM-pair working sets while bounding a MAC-scan's memory.
const defaultFlowCacheSize = 16384

// flowShards is the number of independent cache segments, hashed by
// the packed flow key. Power of two for cheap masking.
const flowShards = 16

// flowEntry is one forwarding decision: what a route lookup resolves a
// destination to, and what the flow cache stores for a unicast flow.
// All fields are immutable once the entry is stored; mutable link state
// (tunables, transport) is read through the link pointer's own atomics
// at transmit time.
type flowEntry struct {
	epoch  uint64 // flow epoch observed before the backing lookup
	tenant uint32

	// fl is the flow's live accounting entry (core.FlowStats.Acquire),
	// set when the entry was filled by a locally originated frame. A
	// hit accounts its frame with two atomic adds on it instead of the
	// stats table's hash + lock + map probe; nil (forwarded fills)
	// falls back to Record.
	fl *core.Flow

	// sli is the flow tenant's per-tenant indicator handles, resolved
	// at fill time so hits account tenant traffic with atomic adds.
	sli *tenantSLI

	// Exactly one of ep/lk is non-nil: local delivery or link forward.
	ep *Endpoint
	lk *link
}

// crossTenant reports whether the decision's endpoint or link is bound
// to a different tenant than the frame — the tenancy guard.
func (e *flowEntry) crossTenant() bool {
	if e.ep != nil {
		return e.ep.tenant != e.tenant
	}
	return e.lk.tenant != e.tenant
}

// flowShard is one cache segment. The map is read under the shard
// read-lock on every hit; fills and evictions take the write lock.
type flowShard struct {
	mu sync.RWMutex
	m  map[core.FlowKey]*flowEntry
}

// flowCache is the node's per-flow forwarding cache: flowShards
// independent segments plus atomic counters the telemetry funcs read.
// Invalidation is implicit (epoch mismatch on read) — a bump costs one
// atomic add no matter how many entries it retires; stale entries are
// overwritten on refill or evicted by the capacity bound.
type flowCache struct {
	shards   [flowShards]flowShard
	perShard int // entry cap per shard

	hits, misses, evictions atomic.Uint64
}

func newFlowCache(total int) *flowCache {
	if total <= 0 {
		total = defaultFlowCacheSize
	}
	per := total / flowShards
	if per < 1 {
		per = 1
	}
	c := &flowCache{perShard: per}
	for i := range c.shards {
		c.shards[i].m = make(map[core.FlowKey]*flowEntry)
	}
	return c
}

// lookup returns the entry for k if it exists and is current at epoch;
// a missing or stale entry is a miss.
func (c *flowCache) lookup(k core.FlowKey, epoch uint64) *flowEntry {
	sh := &c.shards[k.Shard(flowShards)]
	sh.mu.RLock()
	e := sh.m[k]
	sh.mu.RUnlock()
	if e == nil || e.epoch != epoch {
		c.misses.Add(1)
		return nil
	}
	c.hits.Add(1)
	return e
}

// store installs (or refreshes) k's entry. At capacity one resident
// entry is evicted — arbitrary victim, counted; the epoch check on
// read makes victim choice a pure performance question.
func (c *flowCache) store(k core.FlowKey, e *flowEntry) {
	sh := &c.shards[k.Shard(flowShards)]
	sh.mu.Lock()
	if _, resident := sh.m[k]; !resident && len(sh.m) >= c.perShard {
		for victim := range sh.m {
			delete(sh.m, victim)
			c.evictions.Add(1)
			break
		}
	}
	sh.m[k] = e
	sh.mu.Unlock()
}

// entries reports the resident entry count (current and stale alike —
// stale entries still occupy capacity until overwritten or evicted).
func (c *flowCache) entries() int {
	total := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		total += len(sh.m)
		sh.mu.RUnlock()
	}
	return total
}

// bumpFlowEpoch retires every cached flow decision. Called from every
// mutation that can change a forwarding answer; route-table
// invalidations arrive via the core.Tenants hook installed at node
// construction.
func (n *Node) bumpFlowEpoch() { n.flowEpoch.Add(1) }

// FlowCacheStats reports the flow cache's counters and occupancy
// (zeroes when the cache is disabled).
func (n *Node) FlowCacheStats() (hits, misses, evictions uint64, entries int) {
	fc := n.fcache
	if fc == nil {
		return 0, 0, 0, 0
	}
	return fc.hits.Load(), fc.misses.Load(), fc.evictions.Load(), fc.entries()
}

// FlowEpoch exposes the current flow epoch (tests pin that specific
// events bump it).
func (n *Node) FlowEpoch() uint64 { return n.flowEpoch.Load() }

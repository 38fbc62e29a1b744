package cpu

import (
	"slices"
	"sync"

	"wishbranch/internal/bpred"
	"wishbranch/internal/cache"
	"wishbranch/internal/conf"
	"wishbranch/internal/config"
)

// A campaign is hundreds of simulations, and building one's hardware
// tables (caches, predictors, BTB, indirect target cache, confidence
// estimator) allocates about 1.3 MB. So a halted CPU releases those
// tables and its µop free list to per-component free lists, and New
// takes them from there, reset to exactly their just-constructed
// state (each component's Reset; the recycling equivalence tests
// compare against fresh construction).
//
// An entry matches on the component's own configuration, so a sweep
// over one machine parameter (the window size, say) still reuses the
// tables it does not size.
//
// Each free list holds at most recycleCap entries of any configuration
// and drops the oldest beyond that, so the memory it retains is bounded
// by construction whatever configurations a process sees.
const recycleCap = 8

// recycler is one component's free list, keyed by configuration.
type recycler[K comparable, V interface{ Reset() }] struct {
	mu   sync.Mutex
	free []recycled[K, V] // oldest first
}

type recycled[K comparable, V any] struct {
	key K
	v   V
}

// take removes the most recently released entry for k and returns it
// reset, or returns a newly built one if there is none.
func (r *recycler[K, V]) take(k K, build func() V) V {
	r.mu.Lock()
	for i := len(r.free) - 1; i >= 0; i-- {
		if r.free[i].key == k {
			v := r.free[i].v
			r.free = slices.Delete(r.free, i, i+1)
			r.mu.Unlock()
			v.Reset()
			return v
		}
	}
	r.mu.Unlock()
	return build()
}

// put releases v, built for k, dropping the oldest entry when full.
func (r *recycler[K, V]) put(k K, v V) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.free) == recycleCap {
		r.free = slices.Delete(r.free, 0, 1)
	}
	r.free = append(r.free, recycled[K, V]{k, v})
}

type btbKey struct{ entries, ways int }

// hwKeys records the configurations c's hardware was taken for, so
// release files each table under the key it was built for even if the
// caller's machine has since been modified.
type hwKeys struct {
	caches cache.HierarchyConfig
	hybrid bpred.HybridConfig
	btb    btbKey
	itc    int
	jrs    conf.JRSConfig
}

var (
	hierarchies recycler[cache.HierarchyConfig, *cache.Hierarchy]
	hybrids     recycler[bpred.HybridConfig, *bpred.Hybrid]
	btbs        recycler[btbKey, *bpred.BTB]
	itcs        recycler[int, *bpred.IndirectCache]
	jrss        recycler[conf.JRSConfig, *conf.JRS]
	uopLists    recycler[struct{}, *uopPool]
)

// acquire gives c its hardware tables for cfg, recycled where possible.
func (c *CPU) acquire(cfg *config.Machine) {
	k := hwKeys{cfg.Caches, cfg.Hybrid, btbKey{cfg.BTBEntries, cfg.BTBWays}, cfg.IndirectEntries, cfg.JRS}
	c.hwKeys = k
	c.hier = hierarchies.take(k.caches, func() *cache.Hierarchy { return cache.NewHierarchy(k.caches) })
	c.bp = hybrids.take(k.hybrid, func() *bpred.Hybrid { return bpred.NewHybrid(k.hybrid) })
	c.btb = btbs.take(k.btb, func() *bpred.BTB { return bpred.NewBTB(k.btb.entries, k.btb.ways) })
	c.itc = itcs.take(k.itc, func() *bpred.IndirectCache { return bpred.NewIndirectCache(k.itc) })
	c.jrs = jrss.take(k.jrs, func() *conf.JRS { return conf.NewJRS(k.jrs) })
	c.pool = uopLists.take(struct{}{}, func() *uopPool { return new(uopPool) })
}

// release returns c's hardware tables to the free lists and nils them,
// so any use of a halted CPU's hardware panics rather than aliasing
// another simulation's.
func (c *CPU) release() {
	k := c.hwKeys
	hierarchies.put(k.caches, c.hier)
	hybrids.put(k.hybrid, c.bp)
	btbs.put(k.btb, c.btb)
	itcs.put(k.itc, c.itc)
	jrss.put(k.jrs, c.jrs)
	uopLists.put(struct{}{}, c.pool)
	c.hier, c.bp, c.btb, c.itc, c.jrs, c.pool = nil, nil, nil, nil, nil, nil
}

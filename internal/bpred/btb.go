package bpred

// BTBEntry is what the front end learns about a branch from the BTB.
// Per §3.5.1 of the paper, a BTB entry is extended to indicate whether
// the branch is a wish branch and the wish branch type, so the fetch
// stage can act on wish semantics before decode.
type BTBEntry struct {
	Target int  // µop index of the taken target
	IsWish bool // wish-branch hint bit (Figure 7 btype)
	WType  uint8
	IsCond bool
	IsRet  bool
}

// BTB is a set-associative branch target buffer with LRU replacement.
// Its tables are flat, indexed set*ways+way, as cache.Cache's are.
type BTB struct {
	ways    int
	setMask uint64
	tags    []uint64 // 0 = invalid; stored as pc+1
	data    []BTBEntry
	lru     []uint32
	clock   uint32

	Lookups, Hits uint64
}

// NewBTB builds a BTB with the given number of entries (power of two)
// and associativity. The paper's baseline is 4K entries, 4-way.
func NewBTB(entries, ways int) *BTB {
	if entries <= 0 || entries&(entries-1) != 0 || ways <= 0 || entries%ways != 0 {
		panic("bpred: BTB entries must be a power of two divisible by ways")
	}
	sets := entries / ways
	return &BTB{
		ways:    ways,
		setMask: uint64(sets - 1),
		tags:    make([]uint64, entries),
		data:    make([]BTBEntry, entries),
		lru:     make([]uint32, entries),
	}
}

// Reset restores the just-constructed state: every entry invalid and
// the counters zero.
func (b *BTB) Reset() {
	clear(b.tags)
	clear(b.data)
	clear(b.lru)
	b.clock = 0
	b.Lookups, b.Hits = 0, 0
}

// Lookup returns the entry for the branch at pc, if present.
func (b *BTB) Lookup(pc uint64) (BTBEntry, bool) {
	b.Lookups++
	base := int(pc&b.setMask) * b.ways
	for i := base; i < base+b.ways; i++ {
		if b.tags[i] == pc+1 {
			b.clock++
			b.lru[i] = b.clock
			b.Hits++
			return b.data[i], true
		}
	}
	return BTBEntry{}, false
}

// Insert installs or updates the entry for pc, evicting LRU on
// conflict.
func (b *BTB) Insert(pc uint64, e BTBEntry) {
	base := int(pc&b.setMask) * b.ways
	victim := base
	for i := base; i < base+b.ways; i++ {
		if b.tags[i] == pc+1 {
			victim = i
			break
		}
		if b.tags[i] == 0 {
			victim = i
			break
		}
		if b.lru[i] < b.lru[victim] {
			victim = i
		}
	}
	b.clock++
	b.tags[victim] = pc + 1
	b.data[victim] = e
	b.lru[victim] = b.clock
}

// RAS is a fixed-depth return address stack with overwrite-on-overflow
// semantics and cheap top-of-stack repair.
type RAS struct {
	stack []int
	top   int // index of next push slot
}

// NewRAS returns a RAS with the given depth (the paper uses 64).
func NewRAS(depth int) *RAS {
	if depth <= 0 {
		panic("bpred: RAS depth must be positive")
	}
	return &RAS{stack: make([]int, depth)}
}

// Push records a return address (µop index) at a call.
func (r *RAS) Push(retPC int) {
	r.stack[r.top] = retPC
	r.top = (r.top + 1) % len(r.stack)
}

// Pop predicts the target of a return.
func (r *RAS) Pop() int {
	r.top = (r.top - 1 + len(r.stack)) % len(r.stack)
	return r.stack[r.top]
}

// Snapshot captures top-of-stack state for flush repair.
func (r *RAS) Snapshot() (top int, val int) {
	return r.top, r.stack[r.top%len(r.stack)]
}

// Restore rewinds to a snapshot (TOS-pointer repair; entries clobbered
// by deeper wrong-path call/return pairs are not recovered, as in real
// hardware without a full checkpoint).
func (r *RAS) Restore(top, val int) {
	r.top = top
	r.stack[top%len(r.stack)] = val
}

// IndirectCache predicts indirect branch targets: a direct-mapped table
// indexed by PC XORed with global history (the paper's 64K-entry
// indirect target cache).
type IndirectCache struct {
	targets []int32 // target+1; 0 = no target learned
	mask    uint64
}

// NewIndirectCache builds the cache; entries must be a power of two.
func NewIndirectCache(entries int) *IndirectCache {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("bpred: indirect cache entries must be a power of two")
	}
	return &IndirectCache{targets: make([]int32, entries), mask: uint64(entries - 1)}
}

// Reset forgets every learned target.
func (c *IndirectCache) Reset() { clear(c.targets) }

// Lookup predicts the target for the indirect branch at pc under
// history hist; ok is false if no target has been learned.
func (c *IndirectCache) Lookup(pc, hist uint64) (int, bool) {
	t := int(c.targets[(pc^hist)&c.mask]) - 1
	return t, t >= 0
}

// Update learns the actual target, a µop index.
func (c *IndirectCache) Update(pc, hist uint64, target int) {
	c.targets[(pc^hist)&c.mask] = int32(target + 1)
}

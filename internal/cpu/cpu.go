// Package cpu is the cycle-level out-of-order processor model. It
// reproduces the paper's baseline machine (Table 2) and all of the
// wish-branch hardware of §3.5: the front-end mode state machine
// (Figure 8), the predicate dependency elimination buffer (§3.5.3), the
// wish-loop last-prediction buffer with early/late/no-exit recovery
// (§3.5.4), a dedicated JRS confidence estimator (§3.5.5), and both
// predication mechanisms (C-style conditional expressions and
// select-µops, §2.1/§5.3.3), plus the oracle knobs of the Figure 2
// limit study (NO-DEPEND, NO-FETCH, PERFECT-CBP, perfect confidence).
//
// Simulation is execution-driven: a functional emulator advances in
// fetch order along the path the front end actually follows. Wrong
// paths after a detected misprediction are walked with a forked shadow
// state (mirroring the paper's Pin-based wrong-path trace threads), and
// low-confidence wish-branch paths are followed directly, since
// predication makes both directions architecturally equivalent.
//
// The host-side hot path is engineered to be allocation-free in steady
// state and to skip dead cycles in bulk (DESIGN.md §10): µops come
// from a per-CPU pool recycled at retire and flush, the scheduler runs
// on concrete heaps and flat tables instead of interfaces and maps,
// and Run jumps the cycle counter straight to the next event when no
// pipeline stage can make progress. All of this is observationally
// invisible — results are bit-identical to the one-cycle-at-a-time
// reference mode (SetCycleSkipping), which the equivalence suites
// enforce.
package cpu

import (
	"context"

	"wishbranch/internal/bpred"
	"wishbranch/internal/cache"
	"wishbranch/internal/conf"
	"wishbranch/internal/config"
	"wishbranch/internal/emu"
	"wishbranch/internal/isa"
	"wishbranch/internal/obs"
	"wishbranch/internal/prog"
)

// CPU simulates one program on one machine configuration. Create with
// New and call Run once. When the program halts, the CPU hands its
// hardware tables back for the next New to reuse (recycle.go): the
// returned Result owns all its data, and ArchState still works, but
// the CPU cannot run again. A run stopped by cancellation or the cycle
// limit keeps its hardware, so it can be resumed.
type CPU struct {
	cfg  *config.Machine
	prog *prog.Program

	st        *emu.State  // fetch-order architectural state (correct path)
	shadow    *emu.Shadow // active while fetching a wrong path
	shadowBuf *emu.Shadow // reusable shadow storage (one wrong path at a time)

	hier   *cache.Hierarchy
	bp     *bpred.Hybrid
	btb    *bpred.BTB
	ras    *bpred.RAS
	itc    *bpred.IndirectCache
	jrs    *conf.JRS
	lp     *bpred.LoopPredictor
	hwKeys hwKeys // what hier, bp, btb, itc and jrs were built for

	cycle uint64
	seq   uint64

	// Fetch state.
	nextFetch    uint64 // earliest cycle fetch may proceed
	fetchHalted  bool   // HALT fetched on the correct path
	curLine      uint64 // I-cache line currently streaming (+1; 0 = none)
	pendingFlush *uop   // fetch-detected mispredicted branch awaiting resolve

	// Wish-branch front-end state (Figure 8 state machine).
	mode          Mode
	lowConfTarget int // jump/join low-conf region exit PC (-1 = none)
	lowConfLoopPC int // static PC of the wish loop holding low-conf mode (-1)
	// Predicate dependency elimination buffer (§3.5.3), kept as flat
	// per-register arrays: the buffer is consulted for every guarded
	// µop fetched.
	elimValid [isa.NumPredRegs]bool
	elimVal   [isa.NumPredRegs]bool
	predPair  [isa.NumPredRegs]isa.PReg // complement pairing from last defining cmp
	// lastLoopPred holds, per static wish-loop PC, the last fetched
	// prediction; loopGen counts how many times the front end has left
	// each loop. A deferred (extra-iteration) instance whose generation
	// is stale resolves as late-exit: the front end exited (and
	// possibly re-entered) the loop, so there is nothing to flush. The
	// paper's hardware would unnecessarily flush on re-entry
	// (footnote 8); an execution-driven model must not, because the
	// correct path has executed real work past the loop by then. Both
	// are dense arrays indexed by static PC — programs are small and
	// PC-dense, so this is a plain load where a map hit used to be.
	lastLoopPred []bool
	loopGen      []uint64

	// Queues and window. The fetch queue is a fixed ring (capacity is
	// the front-end depth in µops); the window is a ring as before.
	fq       []*uop
	fqHead   int
	fqCount  int
	rob      []*uop // ring buffer
	robHead  int
	robTail  int
	robCount int

	// Fetch-order rename state.
	intWriter   [isa.NumIntRegs]*uop
	predWriter  [isa.NumPredRegs]*uop
	storeWriter *storeTab

	readyQ seqHeap
	compQ  compHeap
	// nextComp is the latency-1 completion fast lane: events issued this
	// cycle that complete next cycle. Issue pops the ready queue
	// oldest-first, so appends arrive in ascending sequence order and the
	// lane needs no sifting; it drains completely every time it comes
	// due, before any new event can be appended. Longer latencies go
	// through the compQ heap, which now only sees the uncommon cases
	// (multiplies, divides, cache misses).
	nextComp []compEvent

	pool      *uopPool
	resolved  []*uop // scratch for completions' resolve batch
	squashBuf []*uop // scratch for flush's squashed-window batch
	skipOff   bool   // disable event-driven cycle skipping (reference mode)

	res Result

	// Cycle accounting (internal/obs): per-cycle trackers feeding the
	// stall-taxonomy attribution in account(). recoverRec is the
	// attribution record of the branch whose flush the pipeline is
	// currently recovering from (nil = not recovering); recoverSeq is
	// the first sequence number fetched after that flush, so recovery
	// ends when post-flush work first retires.
	brTab       *obs.BranchTable
	recoverRec  *obs.BranchStat
	recoverSeq  uint64
	acctRetired int  // µops retired this cycle
	acctUseful  int  // of those, useful (non-select, non-NOP) µops
	acctFull    bool // dispatch was blocked on window space this cycle
	ring        *obs.Ring

	// Internal diagnostics, maintained cheaply every run: cumulative
	// branch resolution delay (flush-penalty decomposition), cycles the
	// window was full at dispatch, retire-blocked cycles by the head
	// µop's opcode, and cycles elided by event skipping. Not part of
	// Result, but repeatedly the fastest way to localize a performance
	// anomaly (see DESIGN.md §7).
	dbgResolveDelay uint64
	dbgResolveCnt   uint64
	dbgRobFull      uint64
	dbgHeadBlock    [32]uint64
	dbgHeadUndisp   uint64
	dbgSkipped      uint64
}

// New builds a simulator for program p under machine cfg. The initial
// memory image is applied via init (may be nil).
func New(cfg *config.Machine, p *prog.Program, init func(*emu.Memory)) (*CPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	st := emu.New(p)
	if init != nil {
		init(st.Mem)
	}
	c := &CPU{
		cfg:           cfg,
		prog:          p,
		st:            st,
		ras:           bpred.NewRAS(cfg.RASDepth),
		mode:          ModeNormal,
		lowConfTarget: -1,
		lowConfLoopPC: -1,
		lastLoopPred:  make([]bool, len(p.Code)),
		loopGen:       make([]uint64, len(p.Code)),
		fq:            make([]*uop, cfg.FrontEndDepth*cfg.FetchWidth+cfg.FetchWidth),
		rob:           make([]*uop, cfg.ROBSize),
		storeWriter:   newStoreTab(cfg.ROBSize),
		brTab:         obs.NewBranchTableN(len(p.Code)),
	}
	c.acquire(cfg)
	if cfg.UseLoopPredictor {
		c.lp = bpred.NewLoopPredictor(cfg.LoopPredEntries)
		c.lp.Bias = cfg.LoopPredictorBias
	}
	for i := range c.predPair {
		c.predPair[i] = isa.PNone
	}
	return c, nil
}

// SetCycleSkipping toggles event-driven cycle skipping (on by
// default). Skipping is a pure host-side optimization: results are
// bit-identical either way, which TestCycleSkipEquivalence enforces
// across the full workload × variant × machine sweep. The
// one-cycle-at-a-time reference mode exists for that test and for
// debugging.
func (c *CPU) SetCycleSkipping(on bool) { c.skipOff = !on }

// Run simulates until the program's HALT retires or maxCycles elapse
// (0 = default limit of 2^40 cycles). It returns the collected result;
// an error means the cycle limit was hit. Run does not measure host
// time: the result is a pure function of the program and machine
// configuration (callers that want wall-clock throughput time the call
// themselves).
func (c *CPU) Run(maxCycles uint64) (*Result, error) {
	return c.RunContext(context.Background(), maxCycles)
}

// Advance runs the pipeline for up to n more cycles and reports
// whether the program has halted. Unlike Run it performs no
// end-of-run flattening, so a steady-state window advanced this way
// allocates nothing — it exists for the host-performance suite
// (TestSteadyStateZeroAlloc, bench_test.go); call Run afterwards to
// finish the simulation and collect the result.
func (c *CPU) Advance(n uint64) bool {
	limit := c.cycle + n
	for !c.res.Halted && c.cycle < limit {
		c.stepOrSkip(limit)
	}
	return c.res.Halted
}

// stepOrSkip advances the simulation by one live cycle, or jumps over
// a maximal run of dead cycles in one step. limit caps the jump so
// cycle-limit truncation behaves identically in both modes.
func (c *CPU) stepOrSkip(limit uint64) {
	if !c.skipOff {
		if n := c.skippable(limit); n > 0 {
			c.bulkAccount(n)
			return
		}
	}
	c.completions()
	c.retire()
	c.issue()
	c.dispatch()
	c.fetch()
	c.account()
	c.cycle++
}

// skippable returns how many cycles can be skipped from the current
// one, or 0 if any pipeline stage can change state this cycle. A cycle
// is dead when no completion event is due, the window head cannot
// retire, nothing is ready to issue, dispatch is dead (the fetch queue
// is empty, its front µop is still in the front-end pipe, or the window
// lacks room for it), and fetch is dead (HALT, before its resume cycle,
// a stuck wrong path, or a full fetch queue). Window-full stalls behind
// a long miss — most of a memory-bound run — are dead cycles with a
// full fetch queue. During a dead stretch the machine state is frozen
// except for the cycle counter, so the per-cycle accounting attribution
// is constant — bulkAccount exploits exactly that. The jump target is
// the earliest future event: the next completion, the fetch-resume
// cycle (also an attribution boundary: structural → fetch-stall), the
// front µop's dispatch-ready cycle (an attribution boundary too:
// dispatch reports a full window only for a ready µop), or the caller's
// cycle limit.
func (c *CPU) skippable(limit uint64) uint64 {
	if len(c.compQ) > 0 && c.compQ[0].cycle <= c.cycle {
		return 0
	}
	if len(c.nextComp) > 0 && c.nextComp[0].cycle <= c.cycle {
		return 0
	}
	if c.robCount > 0 && c.rob[c.robHead].done {
		return 0
	}
	if len(c.readyQ) > 0 {
		return 0
	}
	if !c.fetchHalted && c.cycle >= c.nextFetch && c.fqCount < len(c.fq) && !c.shadowStuck() {
		return 0
	}
	target := limit
	if c.fqCount > 0 {
		if u := c.fqFront(); u.dispReady > c.cycle {
			target = min(target, u.dispReady)
		} else if c.robCount+c.dispatchNeed(u) <= len(c.rob) {
			return 0
		}
	}
	if len(c.compQ) > 0 {
		target = min(target, c.compQ[0].cycle)
	}
	if len(c.nextComp) > 0 {
		target = min(target, c.nextComp[0].cycle)
	}
	if c.cycle < c.nextFetch {
		target = min(target, c.nextFetch)
	}
	if target <= c.cycle {
		return 0
	}
	return target - c.cycle
}

// shadowStuck reports that wrong-path fetch cannot produce µops: the
// shadow ran into HALT or off the program. Only the pending flush can
// unstick it, so fetch is not "active" for skipping purposes.
func (c *CPU) shadowStuck() bool {
	if c.shadow == nil {
		return false
	}
	if c.shadow.Halted() {
		return true
	}
	pc := c.shadow.PC()
	return pc < 0 || pc >= len(c.prog.Code)
}

// bulkAccount posts n skipped cycles at once, exactly as n
// single-cycle passes of retire, dispatch, and account() would: nothing
// retires, and every input to the decision tree is frozen for the whole
// stretch — including whether dispatch is blocked on a full window
// (acctFull), which skippable makes constant by stopping at the front
// µop's dispatch-ready cycle. Both partition identities are preserved
// exactly (the flush-recovery charge goes to the same branch record, in
// the same amount), and so are the diagnostics: retire charges the
// blocked head every cycle, dispatch every window-full cycle.
func (c *CPU) bulkAccount(n uint64) {
	full := c.fqCount > 0 && c.fqFront().dispReady <= c.cycle
	if full {
		c.dbgRobFull += n
	}
	var head *uop
	if c.robCount > 0 {
		head = c.rob[c.robHead]
		c.dbgHeadBlock[head.inst.Op] += n
		if !head.dispatched {
			c.dbgHeadUndisp += n
		}
	}
	var b obs.Bucket
	switch {
	case c.recoverRec != nil:
		b = obs.FlushRecovery
		c.recoverRec.FlushCycles += n
	case head == nil:
		if c.fqCount == 0 && c.cycle < c.nextFetch {
			b = obs.Structural
		} else {
			b = obs.FetchStall
		}
	case head.isSelect || (head.inst.Guard != isa.P0 && !head.inst.IsBranch()):
		b = obs.PredSerial
	case full:
		b = obs.WindowFull
	default:
		b = obs.ExecLatency
	}
	c.res.Acct.Buckets[b] += n
	c.dbgSkipped += n
	c.cycle += n
}

// account closes the cycle for the observability layer: it attributes
// the cycle to exactly one stall-taxonomy bucket (the accounting
// identity: buckets partition total cycles) and resets the per-cycle
// trackers. Priority: retires beat stalls; flush recovery beats every
// other stall; an empty window is a front-end problem, a non-empty one
// a back-end problem.
func (c *CPU) account() {
	var b obs.Bucket
	switch {
	case c.acctUseful > 0:
		b = obs.UsefulRetire
	case c.acctRetired > 0:
		// Only predication overhead retired: predicated-false NOPs or
		// injected select µops.
		b = obs.WishNOP
	case c.recoverRec != nil:
		// Refilling after a flush; also charged to the flushing branch,
		// so per-branch flush cycles sum exactly to this bucket.
		b = obs.FlushRecovery
		c.recoverRec.FlushCycles++
	case c.robCount == 0:
		if c.fqCount == 0 && c.cycle < c.nextFetch {
			b = obs.Structural // I-cache miss or BTB decode bubble
		} else {
			b = obs.FetchStall // front-end pipeline fill
		}
	default:
		head := c.rob[c.robHead]
		switch {
		case !head.done && (head.isSelect || (head.inst.Guard != isa.P0 && !head.inst.IsBranch())):
			b = obs.PredSerial
		case c.acctFull:
			b = obs.WindowFull
		default:
			b = obs.ExecLatency
		}
	}
	c.res.Acct.Buckets[b]++
	c.acctRetired, c.acctUseful, c.acctFull = 0, 0, false
}

// AttachTrace connects a bounded event ring; every fetch, rename,
// retire, and flush event of the rest of the run is recorded into it.
// Tracing is observational only — it never changes simulation results.
func (c *CPU) AttachTrace(r *obs.Ring) { c.ring = r }

// Mode returns the current front-end wish mode (for tests and the
// state-machine experiments).
func (c *CPU) Mode() Mode { return c.mode }

// ArchState exposes the committed architectural state (registers,
// predicates, memory). After Run completes it holds the program's final
// state; tests compare it against a pure functional-emulator run to
// verify that the pipeline's speculative machinery (wrong-path shadows,
// forced wish-branch directions, flush repositioning) never corrupts
// architecture.
func (c *CPU) ArchState() *emu.State { return c.st }

// newUop allocates a reset µop from the pool.
func (c *CPU) newUop() *uop { return c.pool.get() }

// fqPush appends to the fetch queue; callers check capacity first
// (fetch's own queue-full test), so overflow is a programming error.
func (c *CPU) fqPush(u *uop) {
	if c.fqCount == len(c.fq) {
		panic("cpu: fetch queue overflow")
	}
	i := c.fqHead + c.fqCount
	if i >= len(c.fq) {
		i -= len(c.fq)
	}
	c.fq[i] = u
	c.fqCount++
}

// fqFront returns the oldest queued µop; caller checks fqCount.
func (c *CPU) fqFront() *uop { return c.fq[c.fqHead] }

// fqPopFront removes and returns the oldest queued µop.
func (c *CPU) fqPopFront() *uop {
	u := c.fq[c.fqHead]
	c.fq[c.fqHead] = nil
	c.fqHead++
	if c.fqHead == len(c.fq) {
		c.fqHead = 0
	}
	c.fqCount--
	return u
}

// robPush appends to the window; caller must ensure space.
func (c *CPU) robPush(u *uop) {
	c.rob[c.robTail] = u
	c.robTail = (c.robTail + 1) % len(c.rob)
	c.robCount++
}

// robFor iterates the window oldest to youngest.
func (c *CPU) robFor(f func(*uop)) {
	i := c.robHead
	for n := 0; n < c.robCount; n++ {
		f(c.rob[i])
		i = (i + 1) % len(c.rob)
	}
}

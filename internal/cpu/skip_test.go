package cpu

import (
	"reflect"
	"testing"

	"wishbranch/internal/compiler"
	"wishbranch/internal/config"
	"wishbranch/internal/emu"
	"wishbranch/internal/isa"
	"wishbranch/internal/prog"
	"wishbranch/internal/workload"
)

// TestCycleSkipEquivalence is the soundness property behind
// event-driven cycle skipping (DESIGN.md §10): for every workload ×
// compiler variant × machine configuration, a run with skipping
// enabled must produce a Result deeply identical to the forced
// one-cycle-at-a-time reference run — same cycle count, all eight
// stall buckets, per-branch flush attribution, cache stats, and wish
// classification — and the same DESIGN.md §7 diagnostics. Any
// skip-predicate or bulk-attribution bug that elides a live cycle or
// posts to a different bucket or counter fails here.
func TestCycleSkipEquivalence(t *testing.T) {
	scale := 0.1
	benches := workload.All()
	if testing.Short() {
		scale = 0.05
		benches = benches[:3]
	}
	for _, b := range benches {
		src, mem := b.Build(workload.InputA, scale)
		for _, v := range compiler.Variants() {
			p, err := compiler.Compile(src, v)
			if err != nil {
				t.Fatalf("%s/%v: %v", b.Name, v, err)
			}
			for _, m := range acctMachines() {
				label := b.Name + "/" + v.String() + "/" + m.Name
				run := func(skip bool) (*Result, diagnostics) {
					c, err := New(m, p, mem)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					c.SetCycleSkipping(skip)
					res, err := c.Run(0)
					if err != nil {
						t.Fatalf("%s (skip=%v): %v", label, skip, err)
					}
					return res, diagnosticsOf(c)
				}
				ref, refDiag := run(false)
				opt, optDiag := run(true)
				if !reflect.DeepEqual(ref, opt) {
					t.Errorf("%s: cycle skipping changed the result\nreference: %+v\nskipping:  %+v",
						label, ref, opt)
				}
				if refDiag != optDiag {
					t.Errorf("%s: cycle skipping changed the diagnostics\nreference: %+v\nskipping:  %+v",
						label, refDiag, optDiag)
				}
			}
		}
	}
}

// diagnostics is the set of DESIGN.md §7 counters a skipped stretch
// must post exactly as the stepped cycles would.
type diagnostics struct {
	HeadBlock                [32]uint64
	HeadUndisp, RobFull      uint64
	ResolveDelay, ResolveCnt uint64
}

func diagnosticsOf(c *CPU) diagnostics {
	return diagnostics{c.dbgHeadBlock, c.dbgHeadUndisp, c.dbgRobFull, c.dbgResolveDelay, c.dbgResolveCnt}
}

// TestCycleSkipTruncationEquivalence: a run truncated by the cycle
// limit must also be identical in both modes — the skip jump is capped
// at the limit, so truncation lands on the same cycle with the same
// attribution. Besides fixed limits on gzip, it truncates mcf/base-max
// in the middle of window-full dead stretches, on the default machine
// and on the select-µop one, where a single free window slot still
// blocks a µop that needs a select µop behind it.
func TestCycleSkipTruncationEquivalence(t *testing.T) {
	check := func(label string, m *config.Machine, p *prog.Program, mem func(*emu.Memory), limit uint64) {
		t.Helper()
		run := func(skip bool) (*Result, diagnostics) {
			c, err := New(m, p, mem)
			if err != nil {
				t.Fatal(err)
			}
			c.SetCycleSkipping(skip)
			res, _ := c.Run(limit) // cycle-limit error expected for small limits
			return res, diagnosticsOf(c)
		}
		ref, refDiag := run(false)
		opt, optDiag := run(true)
		if !reflect.DeepEqual(ref, opt) || refDiag != optDiag {
			t.Errorf("%s limit %d: cycle skipping changed the truncated result\nreference: %+v %+v\nskipping:  %+v %+v",
				label, limit, ref, refDiag, opt, optDiag)
		}
	}

	b, _ := workload.ByName("gzip")
	src, mem := b.Build(workload.InputA, 0.1)
	p := compiler.MustCompile(src, compiler.WishJumpJoinLoop)
	for _, limit := range []uint64{500, 4096, 100000} {
		check("gzip/wish-jjl", config.DefaultMachine(), p, mem, limit)
	}

	b, _ = workload.ByName("mcf")
	src, mem = b.Build(workload.InputA, 0.1)
	p = compiler.MustCompile(src, compiler.BaseMax)
	for _, m := range []*config.Machine{config.DefaultMachine(), config.DefaultMachine().WithSelectUop()} {
		limits, selectBlocked := windowFullLimits(t, m, p, mem)
		if len(limits) == 0 {
			t.Fatalf("%s: found no window-full dead stretch to truncate in", m.Name)
		}
		if m.PredMech == config.SelectUop && selectBlocked == 0 {
			t.Fatalf("%s: found no stretch blocked by one free slot and a select µop", m.Name)
		}
		for _, limit := range limits {
			check("mcf/base-max/"+m.Name, m, p, mem, limit)
		}
		if selectBlocked != 0 {
			check("mcf/base-max/"+m.Name, m, p, mem, selectBlocked)
		}
	}
}

// windowFullLimits walks a skipping run of p and returns cycle limits
// strictly inside its first few window-full dead stretches (the front
// µop is ready and the window lacks room for it), plus one inside a
// stretch where exactly one window slot is free and the front µop
// needs two (0 if none occurs).
func windowFullLimits(t *testing.T, m *config.Machine, p *prog.Program, mem func(*emu.Memory)) (limits []uint64, selectBlocked uint64) {
	t.Helper()
	c, err := New(m, p, mem)
	if err != nil {
		t.Fatal(err)
	}
	for !c.res.Halted && (len(limits) < 4 || selectBlocked == 0) && c.cycle < 1<<20 {
		n := c.skippable(1 << 40)
		if n >= 4 && c.fqCount > 0 && c.fqFront().dispReady <= c.cycle {
			mid := c.cycle + n/2
			if c.robCount+1 == len(c.rob) && selectBlocked == 0 {
				selectBlocked = mid
			} else if len(limits) < 4 {
				limits = append(limits, mid)
			}
		}
		c.stepOrSkip(1 << 40)
	}
	return limits, selectBlocked
}

// TestCycleSkippingActuallySkips guards the optimization itself: a
// memory-bound run spends most of its cycles in window-full stalls
// behind L2 misses, which are dead cycles even though the fetch queue
// is full, so on mcf/base-max at least half of all cycles must be
// elided. A regression that narrows the skip predicate (or disables
// skipping) would otherwise look like a pure slowdown and escape the
// correctness suites.
func TestCycleSkippingActuallySkips(t *testing.T) {
	b, _ := workload.ByName("mcf") // pointer-chasing: many full-window stalls
	src, mem := b.Build(workload.InputA, 0.1)
	p := compiler.MustCompile(src, compiler.BaseMax)
	c, err := New(config.DefaultMachine(), p, mem)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if 2*c.dbgSkipped < res.Cycles {
		t.Errorf("skipped %d of %d cycles: want at least half", c.dbgSkipped, res.Cycles)
	}
	if c.dbgSkipped >= res.Cycles {
		t.Errorf("skipped %d of %d cycles: more than total", c.dbgSkipped, res.Cycles)
	}
}

// TestSkippableDispatchRoom pins the dispatch arm of the dead-cycle
// test on hand-built states: with every other stage idle, a ready
// front µop is dead only when the window lacks room for it — two
// slots when a select µop rides behind it — and an unready one is
// dead until its dispatch-ready cycle.
func TestSkippableDispatchRoom(t *testing.T) {
	guardedAdd := isa.Inst{Op: isa.OpAdd, Guard: 1, Dst: 2, Src1: 3, Src2: 4, PDst: isa.PNone, PDst2: isa.PNone}
	for _, tc := range []struct {
		name      string
		m         *config.Machine
		free      int
		dispReady uint64
		want      uint64
	}{
		{"one slot, no select", config.DefaultMachine(), 1, 0, 0},
		{"one slot, select", config.DefaultMachine().WithSelectUop(), 1, 0, 100},
		{"two slots, select", config.DefaultMachine().WithSelectUop(), 2, 0, 0},
		{"full window", config.DefaultMachine(), 0, 0, 100},
		{"front not ready", config.DefaultMachine(), 4, 40, 40},
	} {
		c, err := New(tc.m, buildLoopHammock(1), nil)
		if err != nil {
			t.Fatal(err)
		}
		c.fetchHalted = true
		head := c.newUop()
		head.inst, head.dispatched = &guardedAdd, true
		c.rob[c.robHead] = head
		c.robCount = len(c.rob) - tc.free
		front := c.newUop()
		front.inst, front.dispReady = &guardedAdd, tc.dispReady
		c.fqPush(front)
		if got := c.skippable(100); got != tc.want {
			t.Errorf("%s: skippable = %d, want %d", tc.name, got, tc.want)
		}
	}
}

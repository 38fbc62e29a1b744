package cpu

import (
	"testing"

	"wishbranch/internal/compiler"
	"wishbranch/internal/config"
	"wishbranch/internal/workload"
)

// TestSteadyStateZeroAlloc is the arena invariant gate: once the µop
// pool, scheduler heaps, dependent chunks, and wrong-path shadow have
// grown to the workload's working-set size, advancing the pipeline
// allocates nothing at all. Advance (not Run) is measured because only
// the end-of-run flattening (stop) is allowed to allocate.
//
// The measured window includes flushes, wrong-path fetch, cache
// misses, and wish-mode transitions — zero allocations here means the
// recycling paths (retire, flush scrubbing, shadow re-forking) are all
// airtight, not merely the happy path.
func TestSteadyStateZeroAlloc(t *testing.T) {
	for _, v := range []compiler.Variant{compiler.NormalBranch, compiler.WishJumpJoinLoop} {
		t.Run(v.String(), func(t *testing.T) {
			b, _ := workload.ByName("gzip")
			src, mem := b.Build(workload.InputA, 2.0) // ≥500k cycles: room for warm-up + window
			p := compiler.MustCompile(src, v)
			c, err := New(config.DefaultMachine(), p, mem)
			if err != nil {
				t.Fatal(err)
			}
			// Warm up: let every pooled structure reach steady state.
			if c.Advance(300000) {
				t.Fatal("workload halted during warm-up; pick a longer one")
			}
			allocs := testing.AllocsPerRun(20, func() {
				c.Advance(2000)
			})
			if c.res.Halted {
				t.Fatal("workload halted inside the measured window")
			}
			if allocs != 0 {
				t.Errorf("steady-state Advance allocates %.1f objects per 2000-cycle window, want 0", allocs)
			}
		})
	}
}

// TestSteadyStateZeroAllocSelectUop repeats the gate on the select-µop
// machine: select injection allocates µops at twice the rate and uses
// its own rename path, so it gets its own steady-state proof.
func TestSteadyStateZeroAllocSelectUop(t *testing.T) {
	b, _ := workload.ByName("gzip")
	src, mem := b.Build(workload.InputA, 2.0)
	p := compiler.MustCompile(src, compiler.BaseMax)
	c, err := New(config.DefaultMachine().WithSelectUop(), p, mem)
	if err != nil {
		t.Fatal(err)
	}
	if c.Advance(300000) {
		t.Fatal("workload halted during warm-up; pick a longer one")
	}
	allocs := testing.AllocsPerRun(20, func() {
		c.Advance(2000)
	})
	if c.res.Halted {
		t.Fatal("workload halted inside the measured window")
	}
	if allocs != 0 {
		t.Errorf("steady-state Advance allocates %.1f objects per 2000-cycle window, want 0", allocs)
	}
}

// TestAdvanceThenRunEquivalence: driving a simulation through Advance
// windows and finishing with Run must give the same Result as a single
// Run — Advance is a pure pacing API, not a different machine.
func TestAdvanceThenRunEquivalence(t *testing.T) {
	b, _ := workload.ByName("gzip")
	src, mem := b.Build(workload.InputA, 0.1)
	p := compiler.MustCompile(src, compiler.WishJumpJoinLoop)

	c1, err := New(config.DefaultMachine(), p, mem)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := c1.Run(0)
	if err != nil {
		t.Fatal(err)
	}

	c2, err := New(config.DefaultMachine(), p, mem)
	if err != nil {
		t.Fatal(err)
	}
	for !c2.Advance(7777) {
	}
	pieces, err := c2.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if whole.Cycles != pieces.Cycles || whole.RetiredUops != pieces.RetiredUops ||
		whole.Acct != pieces.Acct {
		t.Errorf("Advance-driven run diverged: %d/%d cycles, %d/%d µops",
			whole.Cycles, pieces.Cycles, whole.RetiredUops, pieces.RetiredUops)
	}
}

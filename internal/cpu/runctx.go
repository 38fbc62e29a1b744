package cpu

import (
	"context"
	"fmt"
)

// cancelCheckInterval is how many scheduler wake-ups RunContext lets
// pass between cancellation polls. Each wake-up is either one live
// cycle or one bulk event-skip jump, so the poll rides the existing
// event-skip cadence instead of adding a per-cycle branch: a dead
// stretch of a million cycles costs one poll, and a fully live pipeline
// polls every 32Ki cycles — a few microseconds of simulated work at
// current host throughput. The poll itself is a non-blocking select on
// a channel obtained once before the loop, so the hot path stays
// allocation-free (TestRunContextZeroAlloc).
const cancelCheckInterval = 1 << 15

// RunContext is Run with cooperative cancellation: when ctx is
// cancelled (or its deadline passes), the simulation stops at the next
// cancellation poll and returns the partial result together with an
// error wrapping ctx.Err(). A context that can never be cancelled
// (context.Background, context.TODO) has a nil Done channel, so every
// poll falls through; Run is exactly that call.
//
// Cancellation is a host-side concern only: a run that completes
// before the context fires returns a result bit-identical to Run's
// (TestRunContextEquivalence).
func (c *CPU) RunContext(ctx context.Context, maxCycles uint64) (*Result, error) {
	done := ctx.Done()
	if maxCycles == 0 {
		maxCycles = 1 << 40
	}
	// The first poll comes before the first step, so a context that is
	// dead on arrival simulates nothing and leaves the CPU in a clean
	// resumable state — the µop arena, free-list, and writer tables are
	// untouched, so a later call picks up exactly where this one
	// stopped (TestRunContextPreCancelled).
	countdown := 1
	for !c.res.Halted {
		if countdown--; countdown == 0 {
			countdown = cancelCheckInterval
			select {
			case <-done:
				return c.stop(fmt.Errorf("cpu: run cancelled at cycle %d (pc=%d, retired=%d): %w",
					c.cycle, c.st.PC, c.res.RetiredUops, ctx.Err()))
			default:
			}
		}
		if c.cycle >= maxCycles {
			return c.stop(fmt.Errorf("cpu: cycle limit %d reached (pc=%d, retired=%d)",
				maxCycles, c.st.PC, c.res.RetiredUops))
		}
		c.stepOrSkip(maxCycles)
	}
	return c.stop(nil)
}

// stop ends a run — halted, truncated, or cancelled — by flattening the
// end-of-run statistics into the result (cycle count, cache totals and
// the sorted per-branch attribution table) and returning it with err.
func (c *CPU) stop(err error) (*Result, error) {
	c.res.Cycles = c.cycle
	c.res.L1I = c.hier.L1I.Stats
	c.res.L1D = c.hier.L1D.Stats
	c.res.L2 = c.hier.L2.Stats
	c.res.Mem = c.hier.Mem.Stats
	c.res.Branches = c.brTab.Sorted()
	return &c.res, err
}

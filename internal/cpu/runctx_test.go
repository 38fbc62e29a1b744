package cpu

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"wishbranch/internal/compiler"
	"wishbranch/internal/config"
	"wishbranch/internal/workload"
)

func newGzipCPU(t *testing.T, scale float64) *CPU {
	t.Helper()
	b, _ := workload.ByName("gzip")
	src, mem := b.Build(workload.InputA, scale)
	p := compiler.MustCompile(src, compiler.WishJumpJoinLoop)
	c, err := New(config.DefaultMachine(), p, mem)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRunContextEquivalence: a run that completes before its context
// fires is bit-identical to a plain Run — cancellation support is a
// host-side concern that never perturbs simulation results.
func TestRunContextEquivalence(t *testing.T) {
	r1, err := newGzipCPU(t, 0.05).Run(0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r2, err := newGzipCPU(t, 0.05).RunContext(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("RunContext result differs from Run:\n%+v\nvs\n%+v", r1, r2)
	}
}

// TestRunContextBackgroundDelegates: an uncancellable context takes the
// exact Run path (its nil Done channel makes every poll fall through).
func TestRunContextBackgroundDelegates(t *testing.T) {
	r1, err := newGzipCPU(t, 0.05).Run(0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := newGzipCPU(t, 0.05).RunContext(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("background RunContext differs from Run")
	}
}

// TestRunContextCancel: a pre-cancelled context stops the run at the
// first poll, reports the cause, and still returns the partial result
// with its accounting identity intact.
func TestRunContextCancel(t *testing.T) {
	c := newGzipCPU(t, 2.0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := c.RunContext(ctx, 0)
	if err == nil {
		t.Fatal("cancelled run reported success")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled run returned no partial result")
	}
	if res.Halted {
		t.Error("cancelled run claims the program halted")
	}
	// The run stopped at the first poll: within one check interval of
	// wake-ups. Bulk skips can jump many cycles per wake-up, so bound
	// the work, not the cycle count.
	if res.RetiredUops > 0 && res.Cycles == 0 {
		t.Error("partial result is inconsistent")
	}
	if got := res.Acct.Total(); got != res.Cycles {
		t.Errorf("partial result violates the accounting identity: buckets sum to %d, cycles %d",
			got, res.Cycles)
	}
}

// TestRunContextPreCancelled: a context that is dead on arrival must
// return before simulating a single cycle, and must leave the CPU —
// µop arena, free-list, writer tables, store queue — in a clean
// resumable state. Interrupt the same CPU twice, then let it finish,
// and require the final result bit-identical to an uninterrupted run:
// any arena corruption from the aborted calls shows up as a diverging
// cycle count, retire count, or cache statistic.
func TestRunContextPreCancelled(t *testing.T) {
	want, err := newGzipCPU(t, 0.05).Run(0)
	if err != nil {
		t.Fatal(err)
	}

	c := newGzipCPU(t, 0.05)
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 2; i++ {
		res, err := c.RunContext(dead, 0)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("interrupt %d: error %v does not wrap context.Canceled", i, err)
		}
		if res.Cycles != 0 || res.RetiredUops != 0 {
			t.Fatalf("interrupt %d simulated work before the upfront poll: %d cycles, %d retired",
				i, res.Cycles, res.RetiredUops)
		}
	}
	got, err := c.RunContext(context.Background(), 0)
	if err != nil {
		t.Fatalf("resume after pre-cancelled calls: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("resumed run differs from uninterrupted run:\n%+v\nvs\n%+v", want, got)
	}
}

// TestRunContextDeadline: an already-expired deadline surfaces as
// context.DeadlineExceeded.
func TestRunContextDeadline(t *testing.T) {
	c := newGzipCPU(t, 2.0)
	ctx, cancel := context.WithTimeout(context.Background(), -1)
	defer cancel()
	_, err := c.RunContext(ctx, 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error %v does not wrap context.DeadlineExceeded", err)
	}
}

// TestRunContextCycleLimit: the cycle limit behaves exactly as in Run
// even on the polling path.
func TestRunContextCycleLimit(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := newGzipCPU(t, 1.0).RunContext(ctx, 5000)
	if err == nil {
		t.Fatal("truncated run reported success")
	}
	if errors.Is(err, context.Canceled) {
		t.Errorf("cycle-limit error misattributed to cancellation: %v", err)
	}
	if res.Cycles != 5000 {
		t.Errorf("truncated at %d cycles, want 5000", res.Cycles)
	}
}

// TestRunContextZeroAlloc: the cancellation poll must not allocate —
// the done channel is fetched once, and the poll is a non-blocking
// select. Measured over whole (small) runs, which include end-of-run
// flattening, so the bound is "same as Run", not zero.
func TestRunContextZeroAlloc(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := newGzipCPU(t, 2.0)
	if c.Advance(300000) {
		t.Fatal("workload halted during warm-up; pick a longer one")
	}
	done := ctx.Done()
	allocs := testing.AllocsPerRun(20, func() {
		c.Advance(2000)
		select {
		case <-done:
			t.Fatal("context fired unexpectedly")
		default:
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state window plus cancellation poll allocates %.1f objects, want 0", allocs)
	}
}

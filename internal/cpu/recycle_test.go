package cpu

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"wishbranch/internal/compiler"
	"wishbranch/internal/config"
	"wishbranch/internal/emu"
	"wishbranch/internal/prog"
	"wishbranch/internal/workload"
)

// drain empties the free list, so the next take builds fresh.
func (r *recycler[K, V]) drain() {
	r.mu.Lock()
	r.free = nil
	r.mu.Unlock()
}

func (r *recycler[K, V]) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.free)
}

func drainRecyclers() {
	hierarchies.drain()
	hybrids.drain()
	btbs.drain()
	itcs.drain()
	jrss.drain()
	uopLists.drain()
}

// recycledCount is how many free lists hold at least one entry.
func recycledCount() int {
	n := 0
	for _, l := range []int{hierarchies.len(), hybrids.len(), btbs.len(), itcs.len(), jrss.len(), uopLists.len()} {
		if l > 0 {
			n++
		}
	}
	return n
}

// testWorkload is one compiled benchmark with its memory image, shared
// the way the artifact cache shares them.
type testWorkload struct {
	p   *prog.Program
	img *emu.Image
}

func buildWorkload(t testing.TB, bench string, v compiler.Variant, scale float64) testWorkload {
	t.Helper()
	b, ok := workload.ByName(bench)
	if !ok {
		t.Fatalf("unknown bench %q", bench)
	}
	src, mem := b.Build(workload.InputA, scale)
	return testWorkload{compiler.MustCompile(src, v), emu.NewImage(mem)}
}

// simulate runs w on m to completion and returns the result's encoding.
func simulate(t testing.TB, m *config.Machine, w testWorkload) []byte {
	t.Helper()
	c, err := New(m, w.p, w.img.Init)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	return AppendResult(nil, res)
}

// TestRecycledHardwareMatchesFresh: a simulation on hardware recycled
// from a different one (another workload, binary and machine) encodes
// to exactly the bytes of the same simulation on freshly built
// hardware. Any state a Reset misses, or any table that leaks between
// runs, shows up as a diverging result.
func TestRecycledHardwareMatchesFresh(t *testing.T) {
	machines := []*config.Machine{
		config.DefaultMachine(),
		config.DefaultMachine().WithSelectUop(),
		config.DefaultMachine().WithWindow(128).WithDepth(10),
	}
	benches := []string{"gzip", "mcf", "twolf"}
	variants := []compiler.Variant{compiler.NormalBranch, compiler.BaseMax, compiler.WishJumpJoinLoop}
	if testing.Short() {
		benches, variants = benches[:2], variants[1:]
	}
	prev := buildWorkload(t, "vpr", compiler.WishJumpJoin, 0.05)
	defer drainRecyclers()
	for mi, m := range machines {
		prevM := machines[(mi+1)%len(machines)]
		for _, bench := range benches {
			for _, v := range variants {
				w := buildWorkload(t, bench, v, 0.05)
				name := fmt.Sprintf("%s/%v/%s", bench, v, m.Name)
				drainRecyclers()
				fresh := simulate(t, m, w)

				drainRecyclers()
				simulate(t, prevM, prev)
				if n := recycledCount(); n != 6 {
					t.Fatalf("%s: %d of 6 free lists filled by a halted run", name, n)
				}
				c, err := New(m, w.p, w.img.Init)
				if err != nil {
					t.Fatal(err)
				}
				if n := recycledCount(); n != 0 {
					t.Fatalf("%s: New left %d free lists unused", name, n)
				}
				res, err := c.Run(0)
				if err != nil {
					t.Fatal(err)
				}
				if got := AppendResult(nil, res); !bytes.Equal(got, fresh) {
					t.Errorf("%s: result on recycled hardware differs from fresh hardware", name)
				}
			}
		}
	}
}

// TestResultOutlivesRecycling: a returned Result owns its data. Later
// simulations that reuse its CPU's hardware leave its encoding
// unchanged.
func TestResultOutlivesRecycling(t *testing.T) {
	m := config.DefaultMachine()
	w := buildWorkload(t, "gzip", compiler.WishJumpJoinLoop, 0.05)
	c, err := New(m, w.p, w.img.Init)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	before := AppendResult(nil, res)
	for _, bench := range []string{"mcf", "twolf", "gzip"} {
		simulate(t, m, buildWorkload(t, bench, compiler.BaseMax, 0.05))
	}
	if !bytes.Equal(AppendResult(nil, res), before) {
		t.Error("a later simulation changed an earlier result")
	}
}

// TestRecycledConcurrentSameMachine: goroutines simulating on one
// machine concurrently, each taking and releasing hardware from the
// shared free lists, all get the serial result. Under -race (CI's
// race job runs -short) this also proves no two live CPUs share a
// table.
func TestRecycledConcurrentSameMachine(t *testing.T) {
	m := config.DefaultMachine()
	ws := []testWorkload{
		buildWorkload(t, "gzip", compiler.WishJumpJoinLoop, 0.02),
		buildWorkload(t, "mcf", compiler.BaseMax, 0.02),
	}
	want := make([][]byte, len(ws))
	for i, w := range ws {
		want[i] = simulate(t, m, w)
	}
	const goroutines, runs = 4, 3
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < runs; r++ {
				i := (g + r) % len(ws)
				if got := simulate(t, m, ws[i]); !bytes.Equal(got, want[i]) {
					t.Errorf("goroutine %d run %d: workload %d differs from its serial result", g, r, i)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestRecycledUopsMatchFresh: every µop a recycled free list hands out
// equals a freshly allocated one; only its dependents list keeps its
// capacity.
func TestRecycledUopsMatchFresh(t *testing.T) {
	drainRecyclers()
	defer drainRecyclers()
	simulate(t, config.DefaultMachine(), buildWorkload(t, "gzip", compiler.WishJumpJoinLoop, 0.05))
	p := uopLists.take(struct{}{}, func() *uopPool { t.Fatal("a halted run released no µop free list"); return nil })
	n := len(p.free)
	if n == 0 {
		t.Fatal("the released free list is empty")
	}
	for i := 0; i < n; i++ {
		u := p.get()
		if len(u.dependents) != 0 {
			t.Fatalf("recycled µop %d keeps %d dependents", i, len(u.dependents))
		}
		got := *u
		got.dependents = nil
		if !reflect.DeepEqual(got, uop{}) {
			t.Fatalf("recycled µop %d differs from a fresh one: %+v", i, got)
		}
	}
}

// TestHaltedCPUReleasesHardware: a halted CPU gives its hardware back
// and cannot run again; a cycle-limited one keeps it and resumes.
func TestHaltedCPUReleasesHardware(t *testing.T) {
	m := config.DefaultMachine()
	w := buildWorkload(t, "gzip", compiler.NormalBranch, 0.02)
	c, err := New(m, w.p, w.img.Init)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(100); err == nil {
		t.Fatal("a 100-cycle limit did not stop the run")
	}
	if c.hier == nil || c.pool == nil {
		t.Fatal("a cycle-limited CPU gave up its hardware")
	}
	if _, err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	if c.hier != nil || c.bp != nil || c.btb != nil || c.itc != nil || c.jrs != nil || c.pool != nil {
		t.Error("a halted CPU kept hardware it released")
	}
	if c.ArchState() == nil || !c.ArchState().Halted {
		t.Error("the architectural state did not survive the release")
	}
	defer func() {
		if recover() == nil {
			t.Error("running a halted CPU again did not panic")
		}
	}()
	c.Run(0) //nolint:errcheck // must panic
}

// recycledRunBudget bounds the bytes a New+Run allocates once a
// simulation on the same machine has released its hardware (measured
// at 151 KB on gzip/wish-jjl at scale 0.05, mostly µop dependents
// lists still growing to their working size; building the tables
// afresh costs about 1.3 MB). A table added to CPU without recycling
// breaks it.
const recycledRunBudget = 200 << 10

// TestRecycledRunAllocBudget: after one warm-up simulation, a second
// New+Run on the same machine allocates under recycledRunBudget.
func TestRecycledRunAllocBudget(t *testing.T) {
	m := config.DefaultMachine()
	w := buildWorkload(t, "gzip", compiler.WishJumpJoinLoop, 0.05)
	drainRecyclers()
	simulate(t, m, w)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, err := New(m, w.p, w.img.Init)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > recycledRunBudget {
		t.Errorf("recycled New+Run allocated %d bytes, budget %d", got, recycledRunBudget)
	} else {
		t.Logf("recycled New+Run allocated %d bytes (budget %d)", got, recycledRunBudget)
	}
}

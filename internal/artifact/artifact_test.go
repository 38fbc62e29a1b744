package artifact

import (
	"sync"
	"testing"

	"wishbranch/internal/compiler"
	"wishbranch/internal/config"
	"wishbranch/internal/cpu"
	"wishbranch/internal/isa"
	"wishbranch/internal/prog"
	"wishbranch/internal/workload"
)

func testKey(variant compiler.Variant) Key {
	return Key{
		Bench:      "gzip",
		Input:      workload.InputA,
		Variant:    variant,
		Scale:      0.05,
		Thresholds: compiler.DefaultThresholds(),
	}
}

// TestArtifactSingleflight: any number of concurrent first requests
// for one key build exactly one artifact — everyone gets the same
// pointer, and the table holds one entry.
func TestArtifactSingleflight(t *testing.T) {
	Reset()
	const goroutines = 16
	arts := make([]*Artifact, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a, err := Get(testKey(compiler.WishJumpJoin))
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
				return
			}
			arts[i] = a
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if arts[i] != arts[0] {
			t.Fatalf("goroutine %d got a different artifact pointer than goroutine 0", i)
		}
	}
	if n := Len(); n != 1 {
		t.Fatalf("cache holds %d entries after %d concurrent gets of one key, want 1", n, goroutines)
	}
	if arts[0] == nil || arts[0].Prog == nil || arts[0].Mem == nil {
		t.Fatalf("incomplete artifact: %+v", arts[0])
	}
}

// TestArtifactDistinctKeys: keys differing in any component build
// distinct artifacts.
func TestArtifactDistinctKeys(t *testing.T) {
	Reset()
	a, err := Get(testKey(compiler.WishJumpJoin))
	if err != nil {
		t.Fatal(err)
	}
	variants := []Key{
		testKey(compiler.NormalBranch),
		func() Key { k := testKey(compiler.WishJumpJoin); k.Scale = 0.1; return k }(),
		func() Key { k := testKey(compiler.WishJumpJoin); k.Input = workload.InputB; return k }(),
		func() Key { k := testKey(compiler.WishJumpJoin); k.Bench = "mcf"; return k }(),
		func() Key { k := testKey(compiler.WishJumpJoin); k.Thresholds.WishJump++; return k }(),
	}
	for i, k := range variants {
		b, err := Get(k)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if b == a {
			t.Errorf("variant %d shares the base key's artifact", i)
		}
	}
	if n := Len(); n != 1+len(variants) {
		t.Fatalf("cache holds %d entries, want %d", n, 1+len(variants))
	}
}

// TestArtifactErrors: an unknown benchmark fails, and the failure is
// cached (same singleflight slot, not a rebuild per request).
func TestArtifactErrors(t *testing.T) {
	Reset()
	k := testKey(compiler.WishJumpJoin)
	k.Bench = "no-such-bench"
	if _, err := Get(k); err == nil {
		t.Fatal("unknown benchmark built successfully")
	}
	if _, err := Get(k); err == nil {
		t.Fatal("cached failure turned into success")
	}
	if n := Len(); n != 1 {
		t.Fatalf("error entry not cached: %d entries", n)
	}
}

// TestArtifactHitZeroAlloc pins the hit path at zero allocations: a
// warm Get is a mutex and a map probe, nothing else. This is the
// "artifact-cache hit path" half of the PR's allocation acceptance
// criterion (the codec half lives in cpu.TestResultCodecZeroAlloc).
func TestArtifactHitZeroAlloc(t *testing.T) {
	Reset()
	k := testKey(compiler.WishJumpJoin)
	if _, err := Get(k); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := Get(k); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("warm Get allocates %v objects per run, want 0", n)
	}
}

// TestArtifactImageSharedPerWorkload: the memory image depends only on
// (bench, input, scale), so artifacts that differ in variant or
// thresholds share one image, and a different input or scale gets its
// own.
func TestArtifactImageSharedPerWorkload(t *testing.T) {
	Reset()
	get := func(k Key) *image {
		t.Helper()
		art, err := Get(k)
		if err != nil {
			t.Fatal(err)
		}
		return art.img
	}
	base := testKey(compiler.NormalBranch)
	img := get(base)
	other := testKey(compiler.WishJumpJoinLoop)
	other.Thresholds.WishJump++
	if get(other) != img {
		t.Error("artifacts of one workload that differ in variant and thresholds got distinct images")
	}
	for i, k := range []Key{
		func() Key { k := base; k.Input = workload.InputB; return k }(),
		func() Key { k := base; k.Scale = 0.1; return k }(),
		func() Key { k := base; k.Bench = "mcf"; return k }(),
	} {
		if get(k) == img {
			t.Errorf("key %d: a different workload shares the base image", i)
		}
	}
}

// TestArtifactSharedProgramRaceFree is the -race half of the
// immutability audit: many concurrent CPUs (different machine
// configurations, including the select-µop lowering) simulate one
// shared cached program. Any write to prog.Code — which µops reach via
// *isa.Inst pointers — is a data race here and fails the CI race job.
func TestArtifactSharedProgramRaceFree(t *testing.T) {
	Reset()
	art, err := Get(testKey(compiler.WishJumpJoin))
	if err != nil {
		t.Fatal(err)
	}
	machines := []*config.Machine{
		config.DefaultMachine(),
		config.DefaultMachine().WithSelectUop(),
		config.DefaultMachine().WithWindow(128).WithDepth(10),
	}
	const perMachine = 4
	var wg sync.WaitGroup
	results := make([]uint64, len(machines)*perMachine)
	for mi, m := range machines {
		for j := 0; j < perMachine; j++ {
			wg.Add(1)
			go func(slot int, m *config.Machine) {
				defer wg.Done()
				c, err := cpu.New(m, art.Prog, art.Mem)
				if err != nil {
					t.Error(err)
					return
				}
				res, err := c.Run(0)
				if err != nil {
					t.Error(err)
					return
				}
				results[slot] = res.Cycles
			}(mi*perMachine+j, m)
		}
	}
	wg.Wait()
	for mi := range machines {
		base := results[mi*perMachine]
		for j := 1; j < perMachine; j++ {
			if results[mi*perMachine+j] != base {
				t.Errorf("machine %d: concurrent runs of the shared program disagree: %d vs %d cycles",
					mi, results[mi*perMachine+j], base)
			}
		}
	}
	if err := art.Verify(); err != nil {
		t.Error(err)
	}
}

// TestArtifactMutationGuard is the fingerprint half of the audit:
// simulate every variant of gzip and of mcf (whose pointer-chase image
// is the largest shared memory image) off the cache, then re-verify
// every cached artifact — program and memory image — against its
// construction-time fingerprints. A store that reached a shared image
// page instead of the simulation's private copy fails here. The
// negative case proves the program fingerprint detects mutations (the
// image fingerprint's is emu.TestImageFingerprintSensitive).
func TestArtifactMutationGuard(t *testing.T) {
	Reset()
	var arts []*Artifact
	var keys []Key
	for _, v := range compiler.Variants() {
		mcf := testKey(v)
		mcf.Bench = "mcf"
		keys = append(keys, testKey(v), mcf)
	}
	for _, k := range keys {
		art, err := Get(k)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []*config.Machine{config.DefaultMachine(), config.DefaultMachine().WithSelectUop()} {
			c, err := cpu.New(m, art.Prog, art.Mem)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Run(0); err != nil {
				t.Fatal(err)
			}
		}
		arts = append(arts, art)
	}
	// The benchmarks never store to their initialized data, so drive
	// the copy-on-write path directly: a program that overwrites mcf's
	// head-pointer cell and a bucket on each of 16 pages, run on mcf's
	// image.
	mcf := arts[1]
	storeProg := func() *prog.Program {
		b := prog.NewBuilder()
		b.Emit(isa.MovI(2, -1), isa.MovI(1, 1<<22), isa.Store(1, 0, 2)) // auxBase: the head pointer
		for page := int64(0); page < 16; page++ {
			b.Emit(isa.MovI(1, 1<<23+page*4096), isa.Store(1, 0, 2)) // hashBase: buckets
		}
		b.Emit(isa.Halt())
		return b.MustFinish()
	}()
	c, err := cpu.New(config.DefaultMachine(), storeProg, mcf.Mem)
	if err != nil {
		t.Fatal(err)
	}
	before := c.ArchState().Mem.Footprint()
	if _, err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	if mem := c.ArchState().Mem; mem.Footprint() != before || mem.Load(1<<23) != -1 {
		t.Fatal("the store program did not overwrite image pages; the guard below tests nothing")
	}
	for i, art := range arts {
		if err := art.Verify(); err != nil {
			t.Errorf("artifact %d: %v", i, err)
		}
	}

	// Negative: a single-field mutation must be caught.
	art := arts[0]
	art.Prog.Code[0].Imm ^= 1
	if err := art.Verify(); err == nil {
		t.Error("Verify missed a mutated instruction field")
	}
	art.Prog.Code[0].Imm ^= 1
	if err := art.Verify(); err != nil {
		t.Errorf("fingerprint did not recover after undoing the mutation: %v", err)
	}
}

// Package artifact is the once-per-process build+compile cache.
//
// A campaign sweeps machine configurations far more often than it
// sweeps programs: `wishbench -exp all` runs 558 simulations over only
// a few dozen distinct (bench, input, scale, variant, thresholds)
// combinations. Before this cache every lab.Spec.simulate re-ran
// workload.Build (which synthesizes the whole scaled input data set)
// and compiler.CompileOpt from scratch; now the first simulation of a
// combination builds the artifact under a singleflight guard and every
// later one — concurrent or sequential — shares the same compiled
// *prog.Program and memory initializer. The hit path is a mutex +
// map lookup: zero allocations (TestArtifactHitZeroAlloc).
//
// The memory image is shared one level further out: it depends only
// on (bench, input, scale) — variant and thresholds shape the binary,
// not its data — so every artifact of a workload shares one frozen
// emu.Image, built once. Each simulation's emu.Memory reads the
// image's pages and copies a page only on its first store to it, so
// a simulation of mcf pays for the pages it writes, not for its whole
// ~12 MB pointer-chase image.
//
// Sharing is safe because the artifact is immutable after
// construction: nothing in the simulator writes prog.Code — cpu.New
// builds per-CPU tables from it, µops hold *isa.Inst pointers into it
// but only read — and every run's emu.Memory copies an image page
// before writing it. That audit is enforced, not assumed:
// TestArtifactSharedProgramRaceFree runs many CPUs over one cached
// program under -race, and TestArtifactMutationGuard re-fingerprints
// cached programs and memory images after heavy use (Artifact.Verify:
// FNV-1a over every instruction field plus entry and block structure,
// and over every word of the image).
package artifact

import (
	"fmt"
	"hash/fnv"
	"sync"

	"wishbranch/internal/compiler"
	"wishbranch/internal/emu"
	"wishbranch/internal/prog"
	"wishbranch/internal/workload"
)

// Key identifies one artifact: everything workload.Build and
// compiler.CompileOpt consume, and nothing they don't (machine
// configuration and cycle limits do not shape the binary). The struct
// is comparable by design — it is the cache's map key.
type Key struct {
	Bench      string
	Input      workload.Input
	Variant    compiler.Variant
	Scale      float64
	Thresholds compiler.Thresholds
}

// Artifact is one immutable build+compile product. Prog and Mem are
// shared by every simulation of the key, concurrently; treat both as
// read-only. Mem installs the workload's shared memory image into an
// untouched emu.Memory.
type Artifact struct {
	Prog *prog.Program
	Mem  workload.MemInit

	// fp is the program fingerprint taken at construction, before the
	// artifact was ever shared. Verify re-derives it to prove no
	// simulation mutated the program; img.fp does the same for the
	// memory image.
	fp  uint64
	img *image
}

// imageKey identifies a memory image: the part of Key that
// workload.Build's memory initializer depends on.
type imageKey struct {
	Bench string
	Input workload.Input
	Scale float64
}

// image is one frozen memory image with its construction-time
// fingerprint. once builds it: the first artifact of a workload to
// need the image builds it, concurrent ones wait.
type image struct {
	once sync.Once
	*emu.Image
	fp uint64
}

// entry is a singleflight slot: the first requester builds, everyone
// else waits on done. Errors are cached too — a key that cannot
// compile will not compile better the second time, and re-running the
// whole build to rediscover that would put the failure path's cost
// back on the campaign.
type entry struct {
	done chan struct{}
	art  *Artifact
	err  error
}

var (
	mu     sync.Mutex
	table  = map[Key]*entry{}
	images = map[imageKey]*image{}
)

// Get returns the artifact for k, building it exactly once per process
// per key no matter how many goroutines ask concurrently.
func Get(k Key) (*Artifact, error) {
	mu.Lock()
	e, ok := table[k]
	if ok {
		mu.Unlock()
		<-e.done
		return e.art, e.err
	}
	e = &entry{done: make(chan struct{})}
	table[k] = e
	mu.Unlock()

	e.art, e.err = build(k)
	close(e.done)
	return e.art, e.err
}

func build(k Key) (*Artifact, error) {
	b, ok := workload.ByName(k.Bench)
	if !ok {
		return nil, fmt.Errorf("artifact: unknown benchmark %q", k.Bench)
	}
	src, mem := b.Build(k.Input, k.Scale)
	p, err := compiler.CompileOpt(src, k.Variant, k.Thresholds)
	if err != nil {
		return nil, err
	}
	img := getImage(imageKey{k.Bench, k.Input, k.Scale}, mem)
	return &Artifact{Prog: p, Mem: img.Init, fp: Fingerprint(p), img: img}, nil
}

// getImage returns the memory image for k, building it from init
// exactly once per process per key.
func getImage(k imageKey, init workload.MemInit) *image {
	mu.Lock()
	img := images[k]
	if img == nil {
		img = new(image)
		images[k] = img
	}
	mu.Unlock()
	img.once.Do(func() {
		img.Image = emu.NewImage(init)
		img.fp = img.Fingerprint()
	})
	return img
}

// Verify re-fingerprints the shared program and memory image and
// reports any drift from the construction-time fingerprints — i.e.
// some simulation mutated what every other simulation of this key is
// reading. It exists for the mutation-guard test; a failure here is a
// correctness bug in the simulator, not a cache problem.
func (a *Artifact) Verify() error {
	if got := Fingerprint(a.Prog); got != a.fp {
		return fmt.Errorf("artifact: shared program mutated: fingerprint %#x, was %#x at build time", got, a.fp)
	}
	if got := a.img.Fingerprint(); got != a.img.fp {
		return fmt.Errorf("artifact: shared memory image mutated: fingerprint %#x, was %#x at build time", got, a.img.fp)
	}
	return nil
}

// Reset drops the process-wide cache, memory images included. Tests
// use it to force rebuilds; production code never needs it (artifacts
// are immutable and keys are complete).
func Reset() {
	mu.Lock()
	table = map[Key]*entry{}
	images = map[imageKey]*image{}
	mu.Unlock()
}

// Len reports the number of cached keys (including in-flight builds).
func Len() int {
	mu.Lock()
	defer mu.Unlock()
	return len(table)
}

// Fingerprint hashes everything the simulator reads from a program:
// every field of every instruction, the entry point, and the block
// structure. FNV-1a over fixed-width words — deterministic, cheap
// enough to re-run after a campaign, and sensitive to any single-field
// mutation.
func Fingerprint(p *prog.Program) uint64 {
	h := fnv.New64a()
	var w [8]byte
	word := func(v uint64) {
		w[0] = byte(v)
		w[1] = byte(v >> 8)
		w[2] = byte(v >> 16)
		w[3] = byte(v >> 24)
		w[4] = byte(v >> 32)
		w[5] = byte(v >> 40)
		w[6] = byte(v >> 48)
		w[7] = byte(v >> 56)
		h.Write(w[:]) //nolint:errcheck // fnv never fails
	}
	word(uint64(p.Entry))
	word(uint64(len(p.Code)))
	for i := range p.Code {
		in := &p.Code[i]
		word(uint64(in.Op))
		word(uint64(in.Guard))
		word(uint64(in.Dst))
		word(uint64(in.Src1))
		word(uint64(in.Src2))
		word(uint64(in.Imm))
		if in.UseImm {
			word(1)
		} else {
			word(0)
		}
		word(uint64(in.CC))
		word(uint64(in.PDst))
		word(uint64(in.PDst2))
		word(uint64(in.PSrc1))
		word(uint64(in.PSrc2))
		word(uint64(in.BType))
		word(uint64(in.WType))
		word(uint64(in.Target))
	}
	word(uint64(len(p.BlockStarts)))
	for _, b := range p.BlockStarts {
		word(uint64(b))
	}
	return h.Sum64()
}

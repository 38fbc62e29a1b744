package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"wishbranch/internal/api"
	"wishbranch/internal/artifact"
	"wishbranch/internal/bpred"
	"wishbranch/internal/cache"
	"wishbranch/internal/compiler"
	"wishbranch/internal/conf"
	"wishbranch/internal/config"
	"wishbranch/internal/cpu"
	"wishbranch/internal/emu"
	"wishbranch/internal/isa"
	"wishbranch/internal/lab"
	"wishbranch/internal/obs"
	"wishbranch/internal/prog"
	"wishbranch/internal/workload"
)

// simWorkers is the lab's worker count on the sim workloads, the
// `wishbench -exp all -j 2` campaign path.
const simWorkers = 2

// warmTime is how long a sim workload times in-process warm runs
// after each cold pass, in warmSlices slices with a collection before
// each. Spreading them over every pass averages over the host's speed
// swings; collecting between slices keeps their garbage out of
// peak_rss_mb.
const (
	warmTime   = 250 * time.Millisecond
	warmSlices = 5
)

// warmCap is the sample buffer warmRuns preallocates, ample for
// warmTime of runs of a microsecond or more.
const warmCap = 1 << 18

// passResult is one cold pass over a spec set.
type passResult struct {
	wall    time.Duration
	latMs   []float64 // per-spec host latency of the lab call
	uops    uint64
	digests map[string]string // spec hash -> result digest
	lab     *lab.Lab
}

// coldPass runs every spec cold through a new lab.Lab with simWorkers
// workers and no store or journal, after dropping the process-wide
// artifact cache and the previous pass's garbage, and checks each result against its pin. Each
// worker calls Lab.ResultKeyed in turn, exactly as Lab.Warm does, so
// the benchmark can time every spec.
func coldPass(order []lab.Keyed, pins map[string]string, chk *Checker) passResult {
	artifact.Reset()
	runtime.GC() // start every pass from the same heap, outside the timing
	l := lab.New()
	l.Workers = simWorkers
	pr := passResult{latMs: make([]float64, len(order)), digests: make(map[string]string, len(order)), lab: l}
	var mu sync.Mutex
	next := make(chan int)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < simWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				k := order[i]
				s := time.Now()
				res, err := l.ResultKeyed(context.Background(), k)
				pr.latMs[i] = ms(time.Since(s))
				if err == nil {
					err = chk.Match(k.Spec.String(), res, pins[k.Hash])
				}
				chk.Op(err)
				if res != nil {
					d := resultDigest(res)
					mu.Lock()
					pr.uops += res.RetiredUops
					pr.digests[k.Hash] = d
					mu.Unlock()
				}
			}
		}()
	}
	for i := range order {
		next <- i
	}
	close(next)
	wg.Wait()
	pr.wall = time.Since(t0)
	return pr
}

// warmRuns times in-process warm runs on l over the specs in seeded
// order for d, then checks every result once. A warm run is
// api.LabRunner.Run, the in-process path of the api.Runner contract:
// derive the spec's key and content hash, then hit the memo table.
// Each of the warmSlices timed slices starts from a collected heap and
// appends into a preallocated buffer, so it measures the run path
// rather than the collector.
func warmRuns(l *lab.Lab, specs []lab.Keyed, d time.Duration, rng *rand.Rand, pins map[string]string, chk *Checker) []float64 {
	r := api.LabRunner{Lab: l}
	ctx := context.Background()
	lat := make([]float64, 0, warmCap)
	got := make([]*cpu.Result, len(specs))
	errs := make([]error, len(specs))
	idx := make([]int, len(specs))
	for i := range idx {
		idx[i] = i
	}
	for range warmSlices {
		runtime.GC()
		for begin := time.Now(); time.Since(begin) < d/warmSlices; {
			rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
			for _, i := range idx {
				s := time.Now()
				got[i], errs[i] = r.Run(ctx, specs[i].Spec)
				lat = append(lat, ms(time.Since(s)))
			}
		}
	}
	for i, k := range specs {
		err := errs[i]
		if err == nil {
			err = chk.Match(k.Spec.String(), got[i], pins[k.Hash])
		}
		chk.Op(err)
	}
	return lat
}

// runSim is a measured (untraced) run of a sim workload: cold passes
// until the window is spent, then the warm runs. Every pass simulates
// the same specs, so its µop total is fixed; throughput is taken from
// the median pass.
func runSim(set specSet, pins map[string]string, seconds float64, rng *rand.Rand, chk *Checker, log io.Writer) (metrics, []string) {
	var last passResult
	var lat, passMs, warmP50, warmP99 []float64
	var warmN int
	var wall time.Duration
	var uops uint64
	for wall.Seconds() < seconds {
		last = coldPass(permuted(set.Specs, rng), pins, chk)
		if uops != 0 && last.uops != uops {
			chk.Op(fmt.Errorf("pass %d retired %d µops, pass 1 %d", len(passMs)+1, last.uops, uops))
		}
		uops = last.uops
		lat = append(lat, last.latMs...)
		passMs = append(passMs, ms(last.wall))
		wall += last.wall
		warm := warmRuns(last.lab, set.Specs, warmTime, rng, pins, chk)
		p99, err := tailQuantile(warm, 0.99)
		if err != nil {
			chk.Op(err)
		}
		warmP50 = append(warmP50, median(warm))
		warmP99 = append(warmP99, p99)
		warmN += len(warm)
		fmt.Fprintf(log, "perfbench: pass %d: %d specs in %.2fs\n", len(passMs), len(set.Specs), last.wall.Seconds())
	}
	pass := median(passMs) / 1000
	m := metrics{
		"sim_uops_per_s":   float64(uops) / pass,
		"req_per_s":        float64(len(set.Specs)) / pass,
		"warm_run_p50_ms":  median(warmP50),
		"warm_run_p99_ms":  median(warmP99),
		"fresh_run_p50_ms": median(lat),
		"campaign_p50_ms":  median(passMs),
		"peak_rss_mb":      selfPeakRSSMB(),
	}
	notes := []string{
		fmt.Sprintf("sim_uops_per_s, req_per_s: %d retired µops and %d specs per pass ÷ the median pass, %.3fs (%d passes in %.2fs, %d workers)",
			uops, len(set.Specs), pass, len(passMs), wall.Seconds(), simWorkers),
		fmt.Sprintf("campaign_p50_ms: whole-pass wall time, %d samples", len(passMs)),
		fmt.Sprintf("fresh_run_p50_ms: cold in-process lab runs, %d samples", len(lat)),
		fmt.Sprintf("warm_run_p50_ms/p99: in-process api.LabRunner warm Runs (key, hash, memo hit) for %v in %d slices after each pass, %d samples; medians of the per-pass quantiles", warmTime, warmSlices, warmN),
		"peak_rss_mb: VmHWM of the benchmark process",
	}
	return m, notes
}

// traceSim is the traced run of a sim workload: one untraced cold
// pass, then every spec driven directly through artifact.Get →
// cpu.New → cpu.Run with spans, then the skip-off pass and the layer
// replays. It returns the simulator layers' per-layer metrics.
func traceSim(set specSet, pins map[string]string, rng *rand.Rand, tr *Tracer, chk *Checker, log io.Writer) (metrics, []string, error) {
	order := permuted(set.Specs, rng)
	base := coldPass(order, pins, chk)
	fmt.Fprintf(log, "perfbench: untraced pass: %.2fs\n", base.wall.Seconds())

	p, err := profileSim(order, base.digests, tr, chk, log)
	if err != nil {
		return nil, nil, err
	}
	m := p.metrics()
	overhead := ratio(float64(p.wall-base.wall), float64(base.wall))
	m["trace.overhead_frac"] = overhead
	notes := append(p.notes(),
		fmt.Sprintf("trace.overhead_frac = %.4f: traced pass %.3fs vs untraced lab pass %.3fs over the same %d specs",
			overhead, p.wall.Seconds(), base.wall.Seconds(), len(order)))
	return m, notes, nil
}

// simProfile holds the host-time and simulated-count totals of one
// traced pass over a list of specs.
type simProfile struct {
	n                                      int
	wall                                   time.Duration
	artGet, cpuNew, cpuRun, cpuRunNoSkip   time.Duration
	compile, meminit, emuRun               time.Duration
	bpredReplay, confReplay, cacheReplay   time.Duration
	newAlloc                               uint64
	artifacts                              int
	emuUops                                uint64
	brCommits, brCorrect, jrsLook, jrsHigh uint64
	cycles, retired, fetched, flushes      uint64
	windowFull, flushRecovery, mispred     uint64
	l1dAcc, l1dMiss, l2Acc, l2Miss         uint64
	runLatMs                               []float64
}

// profileSim drives each spec through the simulator layers directly
// and times each call. want maps spec hash to the untraced result
// digest each traced result must equal.
func profileSim(order []lab.Keyed, want map[string]string, tr *Tracer, chk *Checker, log io.Writer) (*simProfile, error) {
	p := &simProfile{n: len(order)}
	var mu sync.Mutex
	// Every span of one spec shares its trace ID.
	ids := make(map[string]uint64, len(order))
	for _, k := range order {
		ids[k.Hash] = tr.NewTrace()
	}

	// Traced pass: the lab's simulate path, one span per layer call.
	// Results stay live until the pass ends, as the lab's memo table
	// keeps them, so the heap the pass runs against matches the
	// untraced pass.
	artifact.Reset()
	runtime.GC()
	live := make([]*cpu.Result, len(order))
	t0 := time.Now()
	err := parallel(len(order), func(i int) error {
		k := order[i]
		id := ids[k.Hash]
		root := tr.Begin(id, 0, "spec")
		sp := tr.Begin(id, root.ID, "artifact.get")
		art, err := artifact.Get(artKey(k.Spec))
		dGet := tr.End(sp)
		if err != nil {
			return err
		}
		sp = tr.Begin(id, root.ID, "cpu.new")
		c, err := cpu.New(k.Spec.Machine, art.Prog, art.Mem)
		dNew := tr.End(sp)
		if err != nil {
			return err
		}
		sp = tr.Begin(id, root.ID, "cpu.run")
		res, err := c.Run(k.Spec.MaxCycles)
		dRun := tr.End(sp)
		tr.End(root)
		if err != nil {
			return err
		}
		chk.Op(chk.Match("traced "+k.Spec.String(), res, want[k.Hash]))
		live[i] = res
		mu.Lock()
		defer mu.Unlock()
		p.artGet += dGet
		p.cpuNew += dNew
		p.cpuRun += dRun
		p.cycles += res.Cycles
		p.retired += res.RetiredUops
		p.fetched += res.FetchedUops
		p.flushes += res.Flushes
		p.windowFull += res.Acct.Buckets[obs.WindowFull]
		p.flushRecovery += res.Acct.Buckets[obs.FlushRecovery]
		p.mispred += res.MispredCondBr
		p.l1dAcc += res.L1D.Accesses
		p.l1dMiss += res.L1D.Misses
		p.l2Acc += res.L2.Accesses
		p.l2Miss += res.L2.Misses
		return nil
	})
	p.wall = time.Since(t0)
	p.artifacts = artifact.Len()
	live = nil
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "perfbench: traced pass: %.2fs\n", p.wall.Seconds())

	// The same specs with event-driven cycle skipping off.
	err = parallel(len(order), func(i int) error {
		k := order[i]
		art, err := artifact.Get(artKey(k.Spec))
		if err != nil {
			return err
		}
		c, err := cpu.New(k.Spec.Machine, art.Prog, art.Mem)
		if err != nil {
			return err
		}
		c.SetCycleSkipping(false)
		sp := tr.Begin(ids[k.Hash], 0, "cpu.run.noskip")
		res, err := c.Run(k.Spec.MaxCycles)
		d := tr.End(sp)
		if err != nil {
			return err
		}
		chk.Op(chk.Match("skip-off "+k.Spec.String(), res, want[k.Hash]))
		mu.Lock()
		p.cpuRunNoSkip += d
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}

	// One at a time, so the heap counters see only the call measured:
	// compile once per artifact, memory-image init and cpu.New per spec.
	groups := groupByArtifact(order)
	for _, g := range groups {
		b, _ := workload.ByName(g.key.Bench)
		src, _ := b.Build(g.key.Input, g.key.Scale)
		id := tr.NewTrace()
		sp := tr.Begin(id, 0, "compiler.compile")
		_, err := compiler.CompileOpt(src, g.key.Variant, g.key.Thresholds)
		p.compile += tr.End(sp)
		if err != nil {
			return nil, err
		}
		art, err := artifact.Get(g.key)
		if err != nil {
			return nil, err
		}
		for _, k := range g.specs {
			mem := emu.NewMemory()
			sp := tr.Begin(ids[k.Hash], 0, "workload.meminit")
			art.Mem(mem)
			p.meminit += tr.End(sp)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := cpu.New(k.Spec.Machine, art.Prog, art.Mem); err != nil {
				return nil, err
			}
			runtime.ReadMemStats(&after)
			p.newAlloc += after.TotalAlloc - before.TotalAlloc
		}
	}

	// Replays of the correct path, per artifact group, in parallel.
	err = parallel(len(groups), func(gi int) error {
		g := groups[gi]
		art, err := artifact.Get(g.key)
		if err != nil {
			return err
		}
		s := recordStream(art)
		for _, k := range g.specs {
			r := replaySpec(tr, ids[k.Hash], art, s, k.Spec.Machine)
			mu.Lock()
			p.emuRun += r.emu
			p.emuUops += r.emuUops
			p.bpredReplay += r.bpred
			p.confReplay += r.conf
			p.cacheReplay += r.cache
			p.brCommits += r.commits
			p.brCorrect += r.correct
			p.jrsLook += r.jrsLook
			p.jrsHigh += r.jrsHigh
			mu.Unlock()
		}
		return nil
	})
	return p, err
}

// parallel runs f(0..n-1) on simWorkers goroutines and returns the
// first error.
func parallel(n int, f func(int) error) error {
	next := make(chan int)
	errs := make(chan error, simWorkers)
	var wg sync.WaitGroup
	for w := 0; w < simWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var first error
			for i := range next {
				if first == nil {
					first = f(i)
				}
			}
			errs <- first
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func artKey(s lab.Spec) artifact.Key {
	return artifact.Key{Bench: s.Bench, Input: s.Input, Variant: s.Variant, Scale: s.Scale, Thresholds: s.Thresholds}
}

type artGroup struct {
	key   artifact.Key
	specs []lab.Keyed
}

// groupByArtifact groups specs that share a compiled program, in
// first-appearance order.
func groupByArtifact(order []lab.Keyed) []artGroup {
	idx := make(map[artifact.Key]int)
	var gs []artGroup
	for _, k := range order {
		ak := artKey(k.Spec)
		i, ok := idx[ak]
		if !ok {
			i = len(gs)
			idx[ak] = i
			gs = append(gs, artGroup{key: ak})
		}
		gs[i].specs = append(gs[i].specs, k)
	}
	return gs
}

// stream is a program's correct path as the predictor and cache
// models see it: the conditional-branch stream and the memory stream
// (I-cache line changes and data accesses, in program order).
type stream struct {
	brPC    []uint64
	brTaken []bool
	// mem holds one event per access: an address with its kind in
	// the low bits (memFetch, memLoad or memStore).
	mem []uint64
}

const (
	memFetch = 0
	memLoad  = 1
	memStore = 2
	memKinds = 3
)

// recordStream runs the emulator over the artifact's correct path and
// records its branch and memory streams.
func recordStream(art *artifact.Artifact) *stream {
	st := emu.New(art.Prog)
	art.Mem(st.Mem)
	s := &stream{}
	line := ^uint64(0)
	st.Run(0, func(step emu.Step) { //nolint:errcheck // no limit: runs to HALT
		if step.Inst == nil {
			return
		}
		if a := prog.Addr(step.PC) &^ 63; a != line {
			line = a
			s.mem = append(s.mem, a|memFetch)
		}
		switch {
		case step.Inst.IsCondBranch():
			s.brPC = append(s.brPC, prog.Addr(step.PC))
			s.brTaken = append(s.brTaken, step.Taken)
		case step.Inst.IsMem() && step.GuardTrue:
			kind := uint64(memLoad)
			if step.Inst.Op != isa.OpLoad {
				kind = memStore
			}
			s.mem = append(s.mem, step.Addr&^7|kind)
		}
	})
	return s
}

type replayResult struct {
	emu, bpred, conf, cache time.Duration
	emuUops                 uint64
	commits, correct        uint64
	jrsLook, jrsHigh        uint64
}

// replaySpec times the emulator over the correct path and the
// predictor, confidence estimator and cache models over its streams,
// each configured as the spec's machine configures them.
func replaySpec(tr *Tracer, id uint64, art *artifact.Artifact, s *stream, m *config.Machine) replayResult {
	var r replayResult

	st := emu.New(art.Prog)
	art.Mem(st.Mem)
	sp := tr.Begin(id, 0, "emu.run")
	n, _ := st.Run(0, nil)
	r.emu = tr.End(sp)
	r.emuUops = n

	h := bpred.NewHybrid(m.Hybrid)
	hist := make([]uint64, len(s.brPC))
	correct := make([]bool, len(s.brPC))
	sp = tr.Begin(id, 0, "bpred.replay")
	for i, pc := range s.brPC {
		taken := s.brTaken[i]
		p := h.Lookup(pc)
		if p.Taken != taken {
			h.Repair(p.Hist, taken)
			h.RepairLocal(pc, p.LHist, taken)
		}
		h.Commit(pc, p, taken)
		hist[i] = p.Hist
		correct[i] = p.Taken == taken
	}
	r.bpred = tr.End(sp)
	r.commits, r.correct = h.Commits, h.Correct

	j := conf.NewJRS(m.JRS)
	sp = tr.Begin(id, 0, "conf.replay")
	for i, pc := range s.brPC {
		j.Lookup(pc, hist[i])
		j.Update(pc, hist[i], correct[i])
	}
	r.conf = tr.End(sp)
	r.jrsLook, r.jrsHigh = j.Lookups, j.HighConf

	hier := cache.NewHierarchy(m.Caches)
	sp = tr.Begin(id, 0, "cache.replay")
	for cycle, ev := range s.mem {
		addr := ev &^ memKinds
		switch ev & memKinds {
		case memFetch:
			hier.AccessI(addr, uint64(cycle))
		case memLoad:
			hier.AccessD(addr, uint64(cycle), false)
		default:
			hier.AccessD(addr, uint64(cycle), true)
		}
	}
	r.cache = tr.End(sp)
	return r
}

// metrics returns the simulator-layer metrics of the profile.
func (p *simProfile) metrics() metrics {
	replays := p.emuRun + p.bpredReplay + p.confReplay + p.cacheReplay
	return metrics{
		"cpu.run_ms":               ms(p.cpuRun),
		"cpu.ns_per_uop":           ratio(float64(p.cpuRun), float64(p.retired)),
		"cpu.ns_per_cycle":         ratio(float64(p.cpuRun), float64(p.cycles)),
		"cpu.core_ms":              ms(p.cpuRun - replays),
		"cpu.skip_speedup":         ratio(float64(p.cpuRunNoSkip), float64(p.cpuRun)),
		"cpu.new_ms":               ms(p.cpuNew),
		"cpu.new_alloc_mb":         float64(p.newAlloc) / (1 << 20),
		"workload.meminit_ms":      ms(p.meminit),
		"artifact.get_ms":          ms(p.artGet),
		"compiler.compile_ms":      ms(p.compile),
		"artifact.count":           float64(p.artifacts),
		"emu.run_ms":               ms(p.emuRun),
		"emu.ns_per_uop":           ratio(float64(p.emuRun), float64(p.emuUops)),
		"bpred.replay_ms":          ms(p.bpredReplay),
		"bpred.replay_accuracy":    ratio(float64(p.brCorrect), float64(p.brCommits)),
		"conf.replay_ms":           ms(p.confReplay),
		"conf.high_conf_share":     ratio(float64(p.jrsHigh), float64(p.jrsLook)),
		"cache.replay_ms":          ms(p.cacheReplay),
		"cpu.cycles":               float64(p.cycles),
		"cpu.retired_uops":         float64(p.retired),
		"cpu.useful_fetch_ratio":   ratio(float64(p.retired), float64(p.fetched)),
		"cpu.flushes":              float64(p.flushes),
		"cpu.window_full_share":    ratio(float64(p.windowFull), float64(p.cycles)),
		"cpu.flush_recovery_share": ratio(float64(p.flushRecovery), float64(p.cycles)),
		"bpred.mispred_per_1k":     ratio(1000*float64(p.mispred), float64(p.retired)),
		"cache.l1d_miss_ratio":     ratio(float64(p.l1dMiss), float64(p.l1dAcc)),
		"cache.l2_miss_ratio":      ratio(float64(p.l2Miss), float64(p.l2Acc)),
	}
}

// notes is the layer accounting check: what share of cpu.run_ms each
// replay covers, each ratio with its base.
func (p *simProfile) notes() []string {
	run := ms(p.cpuRun)
	share := func(name string, d time.Duration) string {
		return fmt.Sprintf("%s = %.1f ms = %.1f%% of cpu.run_ms (%.1f ms over %d specs)", name, ms(d), 100*ratio(ms(d), run), run, p.n)
	}
	replays := p.emuRun + p.bpredReplay + p.confReplay + p.cacheReplay
	return []string{
		share("emu.run_ms", p.emuRun),
		share("bpred.replay_ms", p.bpredReplay),
		share("conf.replay_ms", p.confReplay),
		share("cache.replay_ms", p.cacheReplay),
		share("cpu.core_ms (the remainder)", p.cpuRun-replays),
		fmt.Sprintf("cpu.new_ms = %.1f ms = %.1f%% of cpu.new_ms + cpu.run_ms (%.1f ms)",
			ms(p.cpuNew), 100*ratio(ms(p.cpuNew), ms(p.cpuNew+p.cpuRun)), ms(p.cpuNew+p.cpuRun)),
		fmt.Sprintf("cpu.skip_speedup = %.3f: %.1f ms with cycle skipping off ÷ %.1f ms with it on",
			ratio(float64(p.cpuRunNoSkip), float64(p.cpuRun)), ms(p.cpuRunNoSkip), run),
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

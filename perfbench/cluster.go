package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"wishbranch/internal/api"
	"wishbranch/internal/compiler"
	"wishbranch/internal/conf"
	"wishbranch/internal/cpu"
	"wishbranch/internal/journal"
	"wishbranch/internal/lab"
	"wishbranch/internal/serve"
	"wishbranch/internal/tune"
	"wishbranch/internal/workload"
)

// The serve-cluster traffic: a closed loop of clients with zero think
// time against a coordinator fronting clusterWorkers workers.
const (
	clusterWorkers = 3
	clients        = 2
	campaignSize   = 16 // below the workers' queue depth
	// freshRoundsPerSecond is how many rounds of fresh Runs, one per
	// benchmark, the window issues per second. Whole rounds keep the
	// benchmark mix of the fresh Runs identical from run to run.
	freshRoundsPerSecond = 0.5
	subWindows           = 10   // rates and p99s are medians over sub-windows
	campaignShare        = 0.03 // share of the other ops that are 16-spec Campaigns
	storeMaxBytes        = 256 << 20
	opTimeout            = 30 * time.Second
	// directSeconds bounds the traced run's direct-to-worker phase.
	directSeconds = 3.0
)

// daemon is one wishsimd process the benchmark started.
type daemon struct {
	name string
	url  string
	dir  string
	cmd  *exec.Cmd
	done chan struct{}
}

// procs tracks every live daemon so an interrupted benchmark can stop
// them all.
var procs struct {
	mu   sync.Mutex
	live map[*daemon]bool
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon starts bin with args plus a free loopback -addr, and
// waits until its /healthz answers.
func startDaemon(bin, name, dir string, args ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr, "-drain-timeout", "10s"}, args...)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	d := &daemon{name: name, url: "http://" + addr, dir: dir, cmd: cmd, done: make(chan struct{})}
	go func() {
		cmd.Wait() //nolint:errcheck // exit status is read by stop
		logf.Close()
		close(d.done)
	}()
	procs.mu.Lock()
	if procs.live == nil {
		procs.live = make(map[*daemon]bool)
	}
	procs.live[d] = true
	procs.mu.Unlock()
	if err := waitHealthy(d, 20*time.Second); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func waitHealthy(d *daemon, within time.Duration) error {
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return fmt.Errorf("%s exited during start-up (see %s)", d.name, filepath.Join(d.dir, d.name+".log"))
		default:
		}
		resp, err := http.Get(d.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("%s not healthy within %v", d.name, within)
}

// stop sends SIGTERM (the drain path), waits, and kills the process
// if it has not exited within 15s.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // may have exited already
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck // best effort; we wait below
		<-d.done
	}
	procs.mu.Lock()
	delete(procs.live, d)
	procs.mu.Unlock()
}

// stopAll stops every live daemon; the interrupt path.
func stopAll() {
	procs.mu.Lock()
	var ds []*daemon
	for d := range procs.live {
		ds = append(ds, d)
	}
	procs.mu.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

// procStatusKB reads a "Name:   N kB" field of /proc/<pid>/status.
func procStatusKB(pid, field string) float64 {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			v, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return v
		}
	}
	return 0
}

func selfPeakRSSMB() float64 { return procStatusKB("self", "VmHWM") / 1024 }

func (d *daemon) peakRSSMB() float64 {
	return procStatusKB(strconv.Itoa(d.cmd.Process.Pid), "VmHWM") / 1024
}

// cpuTime returns the process's user+system CPU time so far.
func (d *daemon) cpuTime() time.Duration {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(d.cmd.Process.Pid) + "/stat")
	if err != nil {
		return 0
	}
	s := string(data)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	// Fields 14 and 15 of stat (utime, stime) in clock ticks of 10ms.
	u, _ := strconv.ParseInt(fields[11], 10, 64)
	st, _ := strconv.ParseInt(fields[12], 10, 64)
	return time.Duration(u+st) * 10 * time.Millisecond
}

// cluster is a running coordinator and its workers.
type cluster struct {
	dir     string
	workers []*daemon
	coord   *daemon
}

func (c *cluster) stop() {
	if c.coord != nil {
		c.coord.stop()
	}
	for _, w := range c.workers {
		w.stop()
	}
}

func (c *cluster) daemons() []*daemon { return append([]*daemon{c.coord}, c.workers...) }

// warmSet simulates the serving workload's warm set in-process and
// checks it against the pins. A mismatch is a failed op; the result
// is still served, so the answers that carry it fail too.
func warmSet(specs []lab.Keyed, pins map[string]string, chk *Checker) (map[string]*cpu.Result, error) {
	results, err := simulateAll(specs)
	if err != nil {
		chk.Op(err)
		return nil, err
	}
	for _, k := range specs {
		chk.Op(chk.Match(k.Spec.String(), results[k.Hash], pins[k.Hash]))
	}
	return results, nil
}

// simulateAll simulates every spec in-process on simWorkers goroutines
// and returns the results by spec hash. Each is a copy: a result is a
// field of its CPU, which a reference would keep alive.
func simulateAll(specs []lab.Keyed) (map[string]*cpu.Result, error) {
	out := make(map[string]*cpu.Result, len(specs))
	var mu sync.Mutex
	err := parallel(len(specs), func(i int) error {
		res, err := specs[i].Spec.Simulate()
		if err != nil {
			return err
		}
		r := *res
		mu.Lock()
		out[specs[i].Hash] = &r
		mu.Unlock()
		return nil
	})
	return out, err
}

// setupCluster builds the serving workload from nothing: simulate the
// warm set, write it into every worker's store with lab.Store.Put,
// and start the workers (durable deployment, empty memo tables) and
// the coordinator.
func setupCluster(bin, dir string, specs []lab.Keyed, pins map[string]string, chk *Checker) (*cluster, map[string]*cpu.Result, error) {
	results, err := warmSet(specs, pins, chk)
	if err != nil {
		return nil, nil, err
	}
	c := &cluster{dir: dir}
	errs := make([]error, clusterWorkers)
	var wg sync.WaitGroup
	for i := 0; i < clusterWorkers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			store, err := lab.OpenStore(filepath.Join(dir, fmt.Sprintf("worker%d", i), "cache"))
			if err != nil {
				errs[i] = err
				return
			}
			for _, k := range specs {
				if err := store.PutHashed(k.Key, k.Hash, results[k.Hash]); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, nil, err
	}
	var urls []string
	for i := 0; i < clusterWorkers; i++ {
		wdir := filepath.Join(dir, fmt.Sprintf("worker%d", i))
		w, err := startDaemon(bin, fmt.Sprintf("worker%d", i), wdir,
			"-cache-dir", filepath.Join(wdir, "cache"),
			"-journal", filepath.Join(wdir, "journal"),
			"-store-max-bytes", strconv.Itoa(storeMaxBytes),
			"-j", "1")
		if err != nil {
			c.stop()
			return nil, nil, err
		}
		c.workers = append(c.workers, w)
		urls = append(urls, w.url)
	}
	co, err := startDaemon(bin, "coordinator", filepath.Join(dir, "coordinator"),
		"-coordinator", "-worker", strings.Join(urls, ","))
	if err != nil {
		c.stop()
		return nil, nil, err
	}
	c.coord = co
	return c, results, nil
}

// freshSource draws wishtune-style policies, each key once, so every
// fresh Run is a store miss on its worker. Benchmarks come round-robin
// in seeded order, so every run simulates the same mix.
type freshSource struct {
	mu      sync.Mutex
	rng     *rand.Rand
	seen    map[string]bool
	benches []string
}

func newFreshSource(seed int64) *freshSource {
	return &freshSource{rng: rand.New(rand.NewSource(seed)), seen: make(map[string]bool)}
}

func (f *freshSource) next() lab.Keyed {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.benches) == 0 {
		for _, b := range workload.All() {
			f.benches = append(f.benches, b.Name)
		}
		f.rng.Shuffle(len(f.benches), func(i, j int) { f.benches[i], f.benches[j] = f.benches[j], f.benches[i] })
	}
	bench := f.benches[0]
	f.benches = f.benches[1:]
	wj, wl := compiler.TuneAxes()
	thr, hist, ent := conf.TuneAxes()
	pick := func(xs []int) int { return xs[f.rng.Intn(len(xs))] }
	for {
		p := tune.DefaultPolicy()
		p.Thresholds.WishJump = pick(wj)
		p.Thresholds.WishLoop = pick(wl)
		p.JRS.Threshold = pick(thr)
		p.JRS.HistoryBits = pick(hist)
		p.JRS.Entries = pick(ent)
		p.LoopPred = f.rng.Intn(6) - 1
		k := p.Spec(bench, workload.InputA, serveScale, 0).Keyed()
		if !f.seen[k.Key] {
			f.seen[k.Key] = true
			return k
		}
	}
}

// lineCounter is an io.Writer that counts lines (serve.Client.Log
// writes one per retry).
type lineCounter struct{ n atomic.Int64 }

func (l *lineCounter) Write(p []byte) (int, error) {
	for _, b := range p {
		if b == '\n' {
			l.n.Add(1)
		}
	}
	return len(p), nil
}

type opKind int

const (
	opWarm opKind = iota
	opCampaign
	opFresh
)

// opRec is one completed, checked operation of the loop.
type opRec struct {
	kind opKind
	end  time.Duration // since the loop started
	ms   float64
	uops uint64
}

// loadResult is what the closed loop measured.
type loadResult struct {
	wall     time.Duration
	ops      []opRec
	fresh    []lab.Keyed
	freshGot []*cpu.Result
	retries  int64
}

// latencies returns the latencies of the ops of kind k.
func (lr *loadResult) latencies(k opKind) []float64 {
	var xs []float64
	for _, o := range lr.ops {
		if o.kind == k {
			xs = append(xs, o.ms)
		}
	}
	return xs
}

// subWindows splits the loop into n equal windows by completion time.
func (lr *loadResult) subWindows(n int) [][]opRec {
	out := make([][]opRec, n)
	for _, o := range lr.ops {
		i := int(int64(o.end) * int64(n) / int64(lr.wall))
		if i >= n {
			i = n - 1
		}
		out[i] = append(out[i], o)
	}
	return out
}

// runLoad drives the closed loop against base for seconds. Fresh Runs
// are issued on a fixed schedule, freshRoundsPerSecond over the window, by
// whichever client is free when one falls due; Campaigns are a seeded
// campaignShare of the other ops and warm Runs the rest.
func runLoad(base string, warm []lab.Keyed, results map[string]*cpu.Result, seconds float64, seed int64,
	fresh *freshSource, tr *Tracer, chk *Checker) *loadResult {
	pins := make(map[string]string, len(warm))
	for _, k := range warm {
		pins[k.Hash] = resultDigest(results[k.Hash])
	}
	want := func(k lab.Keyed) string { return pins[k.Hash] }
	retries := &lineCounter{}
	lr := &loadResult{}
	window := time.Duration(seconds * float64(time.Second))
	nFresh := int64(max(1, seconds*freshRoundsPerSecond)) * int64(len(workload.All()))
	gap := window / time.Duration(max(nFresh, 1))
	var issued atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*clients + int64(c) + 1))
			cl := &serve.Client{Base: base, Seed: int64(c + 1), Log: retries}
			var ops []opRec
			var freshK []lab.Keyed
			var freshR []*cpu.Result
			for time.Since(t0) < window {
				ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
				id := tr.NewTrace()
				kind := opWarm
				if n := issued.Load(); n < nFresh && time.Since(t0) >= gap*time.Duration(n)+gap/2 && issued.CompareAndSwap(n, n+1) {
					kind = opFresh
				} else if rng.Float64() < campaignShare {
					kind = opCampaign
				}
				var d time.Duration
				var uops uint64
				var err error
				switch kind {
				case opFresh:
					k := fresh.next()
					sp := tr.Begin(id, 0, "serve.run.fresh")
					s := time.Now()
					var res *cpu.Result
					res, err = cl.Run(ctx, k.Spec)
					d = time.Since(s)
					tr.End(sp)
					if err == nil {
						freshK = append(freshK, k)
						freshR = append(freshR, res)
						uops = res.RetiredUops
					}
				case opCampaign:
					specs := make([]lab.Keyed, campaignSize)
					ss := make([]lab.Spec, campaignSize)
					for i := range specs {
						specs[i] = warm[rng.Intn(len(warm))]
						ss[i] = specs[i].Spec
					}
					sp := tr.Begin(id, 0, "serve.campaign")
					s := time.Now()
					var items []api.CampaignItem
					items, err = cl.Campaign(ctx, ss)
					d = time.Since(s)
					tr.End(sp)
					if err == nil {
						err = chk.MatchCampaign(specs, items, want)
					}
					if err == nil {
						for _, it := range items {
							uops += it.Result.RetiredUops
						}
					}
				default:
					k := warm[rng.Intn(len(warm))]
					sp := tr.Begin(id, 0, "serve.run.warm")
					s := time.Now()
					var res *cpu.Result
					res, err = cl.Run(ctx, k.Spec)
					d = time.Since(s)
					tr.End(sp)
					if err == nil {
						err = chk.Match(k.Spec.String(), res, pins[k.Hash])
					}
					if err == nil {
						uops = res.RetiredUops
					}
				}
				cancel()
				if chk.Op(err) {
					ops = append(ops, opRec{kind: kind, end: time.Since(t0), ms: ms(d), uops: uops})
				}
			}
			mu.Lock()
			lr.ops = append(lr.ops, ops...)
			lr.fresh = append(lr.fresh, freshK...)
			lr.freshGot = append(lr.freshGot, freshR...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	lr.wall = time.Since(t0)
	lr.retries = retries.n.Load()
	return lr
}

// verifyFresh simulates every fresh spec in-process and checks the
// cluster's answer against it. It returns the per-spec simulate
// times and the reference digests.
func verifyFresh(lr *loadResult, chk *Checker) ([]float64, map[string]string) {
	simMs := make([]float64, len(lr.fresh))
	refs := make(map[string]string, len(lr.fresh))
	var mu sync.Mutex
	parallel(len(lr.fresh), func(i int) error { //nolint:errcheck // f reports through chk
		k := lr.fresh[i]
		s := time.Now()
		ref, err := k.Spec.Simulate()
		simMs[i] = ms(time.Since(s))
		if err != nil {
			chk.Late(err)
			return nil
		}
		d := resultDigest(ref)
		mu.Lock()
		refs[k.Hash] = d
		mu.Unlock()
		chk.Late(chk.Match("fresh "+k.Spec.String(), lr.freshGot[i], d))
		return nil
	})
	return simMs, refs
}

func getJSON(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// runCluster is the serve-cluster workload. Untraced, it sets the
// cluster up setups times (timing each), measures the closed loop on
// the last, and checks every answer. Traced, it adds the
// direct-to-worker phase, the daemons' /metrics, the in-process
// timings of the serving layers and, with simLayers, the simulator
// layers over the loop's fresh specs.
func runCluster(set specSet, pins map[string]string, bin, work string, seconds float64, seed int64, setups int, simLayers bool,
	tr *Tracer, chk *Checker, log io.Writer) (metrics, []string, error) {
	var setupS []float64
	var c *cluster
	var results map[string]*cpu.Result
	for i := 0; i < setups; i++ {
		if c != nil {
			c.stop()
			os.RemoveAll(c.dir)
		}
		s := time.Now()
		var err error
		c, results, err = setupCluster(bin, filepath.Join(work, fmt.Sprintf("cluster%d", i)), set.Specs, pins, chk)
		if err != nil {
			return nil, nil, err
		}
		setupS = append(setupS, time.Since(s).Seconds())
		fmt.Fprintf(log, "perfbench: cluster set-up %d: %.2fs\n", i+1, setupS[i])
	}
	defer c.stop()

	cpu0 := make([]time.Duration, len(c.workers))
	for i, w := range c.workers {
		cpu0[i] = w.cpuTime()
	}
	lr := runLoad(c.coord.url, set.Specs, results, seconds, seed, newFreshSource(seed), tr, chk)
	var workerCPU time.Duration
	for i, w := range c.workers {
		workerCPU += w.cpuTime() - cpu0[i]
	}
	fmt.Fprintf(log, "perfbench: closed loop: %d ops in %.2fs\n", len(lr.ops), lr.wall.Seconds())

	simMs, refs := verifyFresh(lr, chk)
	simShare := ratio(1e-3*sumOf(simMs), workerCPU.Seconds())

	// Rates and the p99 are medians over sub-windows, so one disturbed
	// stretch of the loop does not decide them.
	var reqRate, uopRate, p99s []float64
	sub := lr.wall.Seconds() / subWindows
	for _, w := range lr.subWindows(subWindows) {
		var uops uint64
		var warmMs []float64
		for _, o := range w {
			uops += o.uops
			if o.kind == opWarm {
				warmMs = append(warmMs, o.ms)
			}
		}
		reqRate = append(reqRate, float64(len(w))/sub)
		uopRate = append(uopRate, float64(uops)/sub)
		p99, err := tailQuantile(warmMs, 0.99)
		if err != nil {
			chk.Op(err)
		}
		p99s = append(p99s, p99)
	}
	rss := 0.0
	for _, d := range c.daemons() {
		rss += d.peakRSSMB()
	}
	warmMs, campMs, freshMs := lr.latencies(opWarm), lr.latencies(opCampaign), lr.latencies(opFresh)
	m := metrics{
		"setup_s":          median(setupS),
		"sim_uops_per_s":   median(uopRate),
		"req_per_s":        median(reqRate),
		"warm_run_p50_ms":  median(warmMs),
		"warm_run_p99_ms":  median(p99s),
		"fresh_run_p50_ms": median(freshMs),
		"campaign_p50_ms":  median(campMs),
		"peak_rss_mb":      rss,
	}
	notes := []string{
		fmt.Sprintf("closed loop: %d clients, zero think time, %.2fs: %d warm Runs, %d %d-spec Campaigns, %d fresh Runs",
			clients, lr.wall.Seconds(), len(warmMs), len(campMs), campaignSize, len(freshMs)),
		fmt.Sprintf("req_per_s, sim_uops_per_s (retired µops in the answers delivered), warm_run_p99_ms: medians over %d sub-windows of %.2fs",
			subWindows, sub),
		fmt.Sprintf("setup_s: median of %d set-ups %v", len(setupS), roundAll(setupS)),
		fmt.Sprintf("simulation share of worker CPU time: %.3f (%.2fs of in-process simulation of the fresh specs ÷ %.2fs worker CPU during the loop)",
			simShare, 1e-3*sumOf(simMs), workerCPU.Seconds()),
		fmt.Sprintf("peak_rss_mb: VmHWM summed over the coordinator and %d workers", len(c.workers)),
	}
	if tr == nil {
		return m, notes, nil
	}

	lm, lnotes, err := clusterLayers(c, set.Specs, results, lr, simMs, refs, seed, simLayers, tr, chk, work, log)
	if err != nil {
		return nil, nil, err
	}
	lm["serve.sim_share"] = simShare
	lm["cluster.hop_ms"] = m["warm_run_p50_ms"] - lm["serve.direct_warm_p50_ms"]
	lnotes = append(lnotes, fmt.Sprintf("warm_run_p50_ms %.4f = serve.direct_warm_p50_ms %.4f (%.1f%%) + cluster.hop_ms %.4f (%.1f%%)",
		m["warm_run_p50_ms"], lm["serve.direct_warm_p50_ms"], 100*ratio(lm["serve.direct_warm_p50_ms"], m["warm_run_p50_ms"]),
		lm["cluster.hop_ms"], 100*ratio(lm["cluster.hop_ms"], m["warm_run_p50_ms"])))
	return lm, append(notes, lnotes...), nil
}

// clusterLayers gathers the serve-cluster per-layer metrics after the
// traced closed loop.
func clusterLayers(c *cluster, warm []lab.Keyed, results map[string]*cpu.Result, lr *loadResult,
	simMs []float64, refs map[string]string, seed int64, simLayers bool, tr *Tracer, chk *Checker, work string, log io.Writer) (metrics, []string, error) {
	m := metrics{}
	var notes []string

	// Daemon counters, read before the direct phase adds to them.
	var cm api.ClusterMetrics
	if err := getJSON(c.coord.url+"/metrics", &cm); err != nil {
		return nil, nil, err
	}
	var reqs []float64
	for _, w := range cm.Workers {
		reqs = append(reqs, float64(w.Requests))
	}
	m["cluster.max_worker_share"] = ratio(maxOf(reqs), mean(reqs))
	m["cluster.reroutes"] = float64(cm.Reroutes)
	m["cluster.hedges"] = float64(cm.Hedges)
	m["serve.retries"] = float64(lr.retries)
	var lc api.LabMetrics
	var rejected, storeBytes, frames, jbytes, wrss float64
	for _, w := range c.workers {
		var wm api.Metrics
		if err := getJSON(w.url+"/metrics", &wm); err != nil {
			return nil, nil, err
		}
		rejected += float64(wm.Responses["429"])
		lc.Fresh += wm.Lab.Fresh
		lc.DiskHits += wm.Lab.DiskHits
		lc.MemHits += wm.Lab.MemHits
		if wm.Store != nil {
			storeBytes += float64(wm.Store.Bytes)
		}
		if wm.Journal != nil {
			frames += float64(wm.Journal.Frames)
		}
		if fi, err := os.Stat(filepath.Join(w.dir, "journal", "server.wbj")); err == nil {
			jbytes += float64(fi.Size())
		}
		wrss += w.peakRSSMB()
	}
	m["serve.rejected"] = rejected
	m["lab.fresh"] = float64(lc.Fresh)
	m["lab.disk_hits"] = float64(lc.DiskHits)
	m["lab.mem_hits"] = float64(lc.MemHits)
	m["lab.hit_ratio"] = ratio(float64(lc.DiskHits+lc.MemHits), float64(lc.DiskHits+lc.MemHits+lc.Fresh))
	m["store.bytes"] = storeBytes
	m["journal.frames"] = frames
	m["journal.bytes"] = jbytes
	m["serve.worker_rss_mb"] = wrss
	m["cluster.coordinator_rss_mb"] = c.coord.peakRSSMB()
	m["serve.fresh_sim_ms"] = median(simMs)
	notes = append(notes, fmt.Sprintf("cluster.max_worker_share = %.3f: max ÷ mean of per-worker requests %v", m["cluster.max_worker_share"], reqs))

	// Warm Runs straight to one worker, after one untimed round over
	// every key so each is a memo hit there too.
	direct := c.workers[0].url
	cl := &serve.Client{Base: direct}
	for _, k := range warm {
		res, err := cl.Run(context.Background(), k.Spec)
		if err == nil {
			err = chk.Match(k.Spec.String(), res, resultDigest(results[k.Hash]))
		}
		chk.Op(err)
	}
	dl := runLoad(direct, warm, results, directSeconds, seed, newFreshSource(seed+1), nil, chk)
	m["serve.direct_warm_p50_ms"] = median(dl.latencies(opWarm))
	for i := range dl.fresh {
		// The direct phase's few fresh and campaign ops are checked
		// like the loop's but only its warm Runs are timed.
		ref, err := dl.fresh[i].Spec.Simulate()
		if err == nil {
			err = chk.Match("direct fresh", dl.freshGot[i], resultDigest(ref))
		}
		chk.Late(err)
	}
	notes = append(notes, fmt.Sprintf("serve.direct_warm_p50_ms: %d warm Runs straight to worker 0 by %d clients", len(dl.latencies(opWarm)), clients))

	if simLayers {
		// The fresh specs through the simulator layers, checked against
		// the in-process reference.
		p, err := profileSim(lr.fresh, refs, tr, chk, log)
		if err != nil {
			return nil, nil, err
		}
		for k, v := range p.metrics() {
			m[k] = v
		}
		notes = append(notes, fmt.Sprintf("cpu.* layers: the %d fresh specs of the loop", len(lr.fresh)))
		notes = append(notes, p.notes()...)
	}

	sm, snotes, err := servingLayers(warm, results, tr, filepath.Join(work, "layers"))
	if err != nil {
		return nil, nil, err
	}
	for k, v := range sm {
		m[k] = v
	}
	notes = append(notes, snotes...)

	// Tracing overhead of the loop: the recorder's own cost per span
	// times the spans the loop recorded, over the clients' busy time.
	probe := NewTracer()
	const n = 20000
	s := time.Now()
	for i := 0; i < n; i++ {
		probe.End(probe.Begin(0, 0, "probe"))
	}
	perSpan := time.Since(s) / n
	loopSpans := len(lr.ops)
	m["trace.overhead_frac"] = ratio(float64(perSpan)*float64(loopSpans), float64(lr.wall)*clients)
	notes = append(notes, fmt.Sprintf("trace.overhead_frac = %.5f: %d loop spans × %v per span ÷ (%d clients × %.2fs)",
		m["trace.overhead_frac"], loopSpans, perSpan, clients, lr.wall.Seconds()))
	return m, notes, nil
}

// servingLayers times the serving layers in-process over the warm
// results: memo hit, store get and put, journal append, wire codec.
func servingLayers(warm []lab.Keyed, results map[string]*cpu.Result, tr *Tracer, dir string) (metrics, []string, error) {
	defer os.RemoveAll(dir)
	m := metrics{}
	n := float64(len(warm))
	timeEach := func(name string, f func(k lab.Keyed) error) (time.Duration, error) {
		var total time.Duration
		for _, k := range warm {
			sp := tr.Begin(tr.NewTrace(), 0, name)
			err := f(k)
			total += tr.End(sp)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
		}
		return total, nil
	}

	l := lab.New()
	for _, k := range warm {
		l.Seed(k.Key, results[k.Hash])
	}
	var hits time.Duration
	const rounds = 20
	for r := 0; r < rounds; r++ {
		d, err := timeEach("lab.memo_hit", func(k lab.Keyed) error {
			_, err := l.ResultKeyed(context.Background(), k)
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		hits += d
	}
	m["lab.memo_hit_us"] = us(hits) / (n * rounds)

	store, err := lab.OpenStore(filepath.Join(dir, "store"))
	if err != nil {
		return nil, nil, err
	}
	put, err := timeEach("lab.store_put", func(k lab.Keyed) error { return store.PutHashed(k.Key, k.Hash, results[k.Hash]) })
	if err != nil {
		return nil, nil, err
	}
	m["lab.store_put_us"] = us(put) / n
	get, err := timeEach("lab.store_get", func(k lab.Keyed) error {
		if store.GetHashed(k.Key, k.Hash) == nil {
			return fmt.Errorf("store miss for %s", k.Spec)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	m["lab.store_get_us"] = us(get) / n

	j, _, err := journal.Open(filepath.Join(dir, "journal", "layers.wbj"))
	if err != nil {
		return nil, nil, err
	}
	app, err := timeEach("journal.append", func(k lab.Keyed) error { return j.Append(k.Key, results[k.Hash]) })
	j.Close()
	if err != nil {
		return nil, nil, err
	}
	m["journal.append_us"] = us(app) / n

	var buf []byte
	codec, err := timeEach("api.codec", func(k lab.Keyed) error {
		buf = api.AppendRunResponse(buf[:0], k.Key, results[k.Hash])
		var resp api.RunResponse
		return api.DecodeRunResponse(buf, &resp)
	})
	if err != nil {
		return nil, nil, err
	}
	m["api.codec_us"] = us(codec) / n
	notes := []string{fmt.Sprintf("lab/store/journal/api layer timings: in-process means over the %d warm results (memo hits × %d rounds)", len(warm), rounds)}
	return m, notes, nil
}

func sumOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func roundAll(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return out
}

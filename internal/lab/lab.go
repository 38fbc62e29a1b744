package lab

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"wishbranch/internal/cpu"
)

// Lab is the campaign scheduler: a singleflight, in-memory memo table
// in front of an optional persistent Store, with a bounded worker pool
// for batch warm-up. The zero value is not usable; call New.
//
// Result and Warm are safe for concurrent use. Configure Workers,
// Store, and Log before the first run.
type Lab struct {
	// Workers bounds concurrent simulations in Warm (<= 0 means
	// runtime.NumCPU()).
	Workers int
	// Store, when non-nil, persists results across processes.
	Store *Store
	// Log, when non-nil, receives one progress line per completed
	// fresh simulation or store hit.
	Log io.Writer
	// Backend, when non-nil, replaces local simulation: a fresh result
	// (memo miss, store miss) is acquired by calling it instead of
	// Spec.SimulateContext. This is how wishbench runs campaigns
	// against a remote wishsimd (serve.Client.Run has exactly this
	// signature). Store and memo behaviour are unchanged — backend
	// results are persisted like local ones, so a remote campaign
	// still warms the local store.
	Backend func(context.Context, Spec) (*cpu.Result, error)
	// OnResult, when non-nil, observes every result this process
	// acquires — fresh simulation, store hit, or backend call — exactly
	// once per key, before any waiter on that key is released. It is
	// the campaign journal's hook (internal/journal.Attach): results
	// are journaled before they are observable, so a crash can lose
	// only work nobody has seen. Seeded entries (results replayed from
	// a journal) do not re-fire it. Set before the first run.
	OnResult func(k Keyed, r *cpu.Result)

	mu      sync.Mutex
	entries map[string]*entry
	c       Counters
	running int
	started time.Time
}

type entry struct {
	done chan struct{}
	res  *cpu.Result
	err  error
	// removed marks an entry that was deleted from the memo table
	// because its producer was cancelled mid-run: the result is not a
	// property of the spec, so waiters with a live context retry
	// instead of inheriting the cancellation. Written before done is
	// closed, read only after it is closed.
	removed bool
}

// Counters snapshots the campaign's progress.
type Counters struct {
	// Fresh counts simulations actually executed by this process.
	Fresh uint64
	// DiskHits counts results served from the persistent store.
	DiskHits uint64
	// MemHits counts repeat requests served from the in-memory table.
	MemHits uint64
	// Errors counts specs whose simulation failed.
	Errors uint64
	// Canceled counts runs abandoned because the requesting context
	// was cancelled or timed out. Cancelled runs are not memoized:
	// the next request for the same key simulates afresh.
	Canceled uint64
	// Seeded counts memo entries pre-populated by Seed (journal
	// replay) rather than produced by this process.
	Seeded uint64
}

// Runs returns all completed acquisitions (fresh + disk hits).
func (c Counters) Runs() uint64 { return c.Fresh + c.DiskHits }

// HitRatio returns the fraction of successful acquisitions served from
// a cache (memo table or store) rather than simulated fresh.
func (c Counters) HitRatio() float64 {
	hits := c.DiskHits + c.MemHits
	total := hits + c.Fresh
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// New returns an empty lab with default parallelism and no store.
func New() *Lab {
	return &Lab{entries: make(map[string]*entry)}
}

func (l *Lab) workers() int {
	if l.Workers > 0 {
		return l.Workers
	}
	return runtime.NumCPU()
}

// Counters returns a snapshot of the progress counters.
func (l *Lab) Counters() Counters {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.c
}

// InFlight returns the number of simulations currently executing (not
// waiting, not cached) — the queue-instrumentation gauge wishsimd
// exports on /metrics.
func (l *Lab) InFlight() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.running
}

// Result returns the simulation result for spec, from the in-memory
// table, the persistent store, or a fresh simulation — in that order.
// Concurrent requests for the same key share one simulation.
func (l *Lab) Result(s Spec) (*cpu.Result, error) {
	return l.ResultContext(context.Background(), s)
}

// ResultContext is Result with cancellation. The context bounds this
// caller's wait, and — when this caller ends up producing the result —
// the simulation itself (via cpu.RunContext). A cancelled production is
// not memoized: its entry is removed so later requests re-simulate,
// and concurrent waiters whose own context is still live retry as the
// new producer instead of inheriting the cancellation.
//
// The memo probe needs only the key: it is built into a stack buffer
// and the SHA-256 store address is computed on a miss only, so a memo
// hit allocates nothing (TestMemoHitZeroAlloc).
func (l *Lab) ResultContext(ctx context.Context, s Spec) (*cpu.Result, error) {
	var buf [keyBufSize]byte
	key := s.appendKey(buf[:0])
	l.mu.Lock()
	e, ok := l.entries[string(key)]
	if ok {
		l.c.MemHits++
	}
	l.mu.Unlock()
	if !ok {
		k := string(key)
		return l.ResultKeyed(ctx, Keyed{Spec: s, Key: k, Hash: hashKey(k)})
	}
	if res, err := await(ctx, s, e); err != errRetry {
		return res, err
	}
	return l.ResultKeyed(ctx, s.Keyed())
}

// errRetry is await's report that an entry's producer was cancelled
// while the caller's context is still live: the caller retries as the
// new producer rather than inheriting the cancellation.
var errRetry = errors.New("lab: producer cancelled; retry")

// await waits for a memo entry of spec s and returns its outcome.
func await(ctx context.Context, s Spec, e *entry) (*cpu.Result, error) {
	select {
	case <-e.done:
	case <-ctx.Done():
		return nil, fmt.Errorf("lab: %s: %w", s, ctx.Err())
	}
	if e.removed && ctx.Err() == nil {
		return nil, errRetry // producer was cancelled, not the spec's fault
	}
	return e.res, e.err
}

// ResultKeyed is ResultContext for callers that already computed the
// spec's key and hash (serve request handlers, campaign warm-up,
// cluster shards): the memo probe and the store address reuse the
// cached forms instead of re-deriving them per lookup.
func (l *Lab) ResultKeyed(ctx context.Context, k Keyed) (*cpu.Result, error) {
	for {
		l.mu.Lock()
		if l.entries == nil {
			l.entries = make(map[string]*entry)
		}
		if e, ok := l.entries[k.Key]; ok {
			l.c.MemHits++
			l.mu.Unlock()
			if res, err := await(ctx, k.Spec, e); err != errRetry {
				return res, err
			}
			continue
		}
		e := &entry{done: make(chan struct{})}
		l.entries[k.Key] = e
		if l.started.IsZero() {
			l.started = time.Now()
		}
		l.mu.Unlock()

		e.res, e.err = l.produce(ctx, k)
		if e.err != nil && isCancellation(e.err) {
			l.mu.Lock()
			l.c.Canceled++
			delete(l.entries, k.Key)
			l.mu.Unlock()
			e.removed = true
		}
		if e.err == nil && l.OnResult != nil {
			// Before close(done): the result is journaled (or otherwise
			// observed) before any waiter can act on it.
			l.OnResult(k, e.res)
		}
		close(e.done)
		return e.res, e.err
	}
}

// Seed pre-populates the memo table with a completed result — the
// journal-replay path: a resumed campaign seeds everything the journal
// already has and re-simulates only the missing suffix. Seeding a key
// that already has an entry is a no-op (reported as false), and seeded
// entries do not fire OnResult: they came from the journal, so
// re-journaling them would be circular. Seed before the campaign
// starts; it does not resolve racing in-flight productions.
func (l *Lab) Seed(key string, r *cpu.Result) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.entries == nil {
		l.entries = make(map[string]*entry)
	}
	if _, ok := l.entries[key]; ok {
		return false
	}
	e := &entry{done: make(chan struct{}), res: r}
	close(e.done)
	l.entries[key] = e
	l.c.Seeded++
	return true
}

func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// produce fills one entry: store lookup, then simulation (persisting
// the fresh result). Store write failures are reported on Log but do
// not fail the run — the result is still returned.
func (l *Lab) produce(ctx context.Context, k Keyed) (*cpu.Result, error) {
	s := k.Spec
	if l.Store != nil {
		if r := l.Store.GetHashed(k.Key, k.Hash); r != nil {
			l.note(s, r, 0, &l.c.DiskHits, "hit")
			return r, nil
		}
	}
	l.mu.Lock()
	l.running++
	l.mu.Unlock()
	t0 := time.Now()
	var res *cpu.Result
	var err error
	if l.Backend != nil {
		res, err = l.Backend(ctx, s)
	} else {
		res, err = s.SimulateContext(ctx)
	}
	simTime := time.Since(t0)
	l.mu.Lock()
	l.running--
	l.mu.Unlock()
	if err != nil {
		if !isCancellation(err) {
			l.mu.Lock()
			l.c.Errors++
			l.mu.Unlock()
		}
		return nil, err
	}
	if l.Store != nil {
		if perr := l.Store.PutHashed(k.Key, k.Hash, res); perr != nil && l.Log != nil {
			l.mu.Lock()
			fmt.Fprintf(l.Log, "lab: %v (result kept in memory)\n", perr)
			l.mu.Unlock()
		}
	}
	l.note(s, res, simTime, &l.c.Fresh, "ran")
	return res, nil
}

// note bumps a counter and emits one progress line. simTime is the
// host wall-clock the simulation took (zero for store hits): results
// themselves carry no host timing, so the caller that ran the
// simulation measures it. The counter pointer must be a field of l.c
// so the bump happens under l.mu.
func (l *Lab) note(s Spec, r *cpu.Result, simTime time.Duration, counter *uint64, verb string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	*counter++
	if l.Log == nil {
		return
	}
	c := l.c
	elapsed := time.Since(l.started).Seconds()
	rate := 0.0
	if elapsed > 0 {
		rate = float64(c.Runs()) / elapsed
	}
	fmt.Fprintf(l.Log, "[%d runs (%d fresh, %d cached), %.1f sims/s] %s %-40s %10d cycles  %.2f µPC  %s\n",
		c.Runs(), c.Fresh, c.DiskHits, rate, verb, s.String(), r.Cycles, r.UPC(),
		simTime.Round(time.Millisecond))
}

// Summary renders the campaign counters as one line.
func (l *Lab) Summary() string {
	l.mu.Lock()
	c, started := l.c, l.started
	l.mu.Unlock()
	line := fmt.Sprintf("%d fresh simulations, %d store hits, %d memo hits, %d errors",
		c.Fresh, c.DiskHits, c.MemHits, c.Errors)
	if !started.IsZero() && c.Fresh > 0 {
		if secs := time.Since(started).Seconds(); secs > 0 {
			line += fmt.Sprintf(", %.2f sims/s", float64(c.Fresh)/secs)
		}
	}
	return line
}

// Warm acquires every spec in the batch, de-duplicated, across the
// worker pool. Individual simulation failures are recorded (and
// memoized) but not returned: the serial render pass that follows
// re-requests the same keys and surfaces the error with full context.
// Warm returns once every spec has been attempted.
func (l *Lab) Warm(specs []Spec) {
	seen := make(map[string]bool, len(specs))
	uniq := make([]Keyed, 0, len(specs))
	for _, s := range specs {
		// One key+hash computation per campaign item; the workers
		// below (and their memo/store lookups) reuse the cached forms.
		k := s.Keyed()
		if !seen[k.Key] {
			seen[k.Key] = true
			uniq = append(uniq, k)
		}
	}
	n := l.workers()
	if n > len(uniq) {
		n = len(uniq)
	}
	ctx := context.Background()
	if n <= 1 {
		for _, k := range uniq {
			l.ResultKeyed(ctx, k) //nolint:errcheck // memoized; re-surfaced by the render pass
		}
		return
	}
	ch := make(chan Keyed)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range ch {
				l.ResultKeyed(ctx, k) //nolint:errcheck // see above
			}
		}()
	}
	for _, k := range uniq {
		ch <- k
	}
	close(ch)
	wg.Wait()
}

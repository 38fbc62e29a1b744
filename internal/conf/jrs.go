// Package conf implements branch-prediction confidence estimation.
// JRSConfig carries Validate (the constructor's contract, also run on
// every lab.Spec before simulation), Sig (a compact human-readable
// signature for reports), and TuneAxes (the candidate values the
// policy auto-tuner in internal/tune searches).
//
// The paper uses a modified JRS estimator (Jacobsen, Rotenberg & Smith,
// MICRO-29): a small table of miss-distance counters indexed by branch
// PC hashed with global branch history. A counter is incremented when
// the branch predictor is correct and cleared when it mispredicts; a
// prediction is deemed high-confidence when the counter is at or above
// a threshold. The paper's instance is 1 KB, tagged, 4-way, with 16-bit
// history (Table 2); it is dedicated to wish branches.
package conf

import "fmt"

// JRSConfig sizes the estimator.
type JRSConfig struct {
	Entries     int // total counters (power of two)
	Ways        int // associativity
	HistoryBits int // history bits hashed into the index
	CtrBits     int // miss-distance counter width
	Threshold   int // counter value at/above which confidence is high
}

// DefaultJRSConfig is the dedicated wish-branch estimator: a 1 KB
// tagged 4-way table of 4-bit miss-distance counters (with 12-bit tags
// each entry is 2 bytes, so 1 KB holds 512 entries in 128 sets).
//
// The paper says it uses a "modified JRS estimator" with a 16-bit
// history register (Table 2) without specifying the modification. A
// straight 16-bit-history index makes every distinct history context a
// separate counter that must be trained from zero, which leaves
// almost-always-correct wish branches stuck in low confidence whenever
// the surrounding code has any unpredictable branches. Our calibration
// (see EXPERIMENTS.md) indexes by PC alone (HistoryBits 0) with a
// threshold of 8, so counters recur often enough to saturate and to
// track phase changes. This reproduces the paper's Figure 11 behaviour:
// very few mispredicted branches estimated high-confidence, and a
// conservative (too-large) low-confidence set. Set HistoryBits > 0 to
// study history-indexed variants.
func DefaultJRSConfig() JRSConfig {
	return JRSConfig{Entries: 512, Ways: 4, HistoryBits: 0, CtrBits: 4, Threshold: 8}
}

// Validate reports an unbuildable estimator configuration: a
// non-power-of-two or way-indivisible table, a zero-width counter, a
// threshold past the never-confident sentinel, or a history width
// beyond the 64-bit history register. Threshold may be saturation+1:
// a counter can never reach it, which pins the estimator to low
// confidence — the intentional "always predicate" configuration the
// mode-forcing tests use.
func (c JRSConfig) Validate() error {
	if c.Entries <= 0 || c.Entries&(c.Entries-1) != 0 || c.Ways <= 0 || c.Entries%c.Ways != 0 {
		return fmt.Errorf("conf: entries (%d) must be a power of two divisible by ways (%d)", c.Entries, c.Ways)
	}
	if c.CtrBits <= 0 || c.CtrBits > 16 {
		return fmt.Errorf("conf: counter width %d bits outside (0,16]", c.CtrBits)
	}
	if max := 1<<uint(c.CtrBits) - 1; c.Threshold < 0 || c.Threshold > max+1 {
		return fmt.Errorf("conf: threshold %d outside [0,%d] for %d-bit counters", c.Threshold, max+1, c.CtrBits)
	}
	if c.HistoryBits < 0 || c.HistoryBits > 64 {
		return fmt.Errorf("conf: history bits %d outside [0,64]", c.HistoryBits)
	}
	return nil
}

// Sig is the compact signature of the configuration, used by tuned
// policy reports: e.g. the default is "jrs-e512w4h0c4t8".
func (c JRSConfig) Sig() string {
	return fmt.Sprintf("jrs-e%dw%dh%dc%dt%d", c.Entries, c.Ways, c.HistoryBits, c.CtrBits, c.Threshold)
}

// TuneAxes returns the candidate values the policy auto-tuner
// (internal/tune) searches per estimator axis: the confidence
// threshold (bounded by the default 4-bit counter's saturation value
// 15), the history bits hashed into the index, and the table size.
// Ways and counter width stay at their defaults — the paper fixes the
// 4-way 4-bit geometry (Table 2), and every listed combination
// passes Validate against it.
func TuneAxes() (threshold, historyBits, entries []int) {
	return []int{2, 4, 6, 8, 10, 12, 15},
		[]int{0, 2, 4, 8, 16},
		[]int{256, 512, 1024}
}

// JRS is the tagged set-associative miss-distance-counter estimator.
type JRS struct {
	cfg     JRSConfig
	setMask uint64
	ctrMax  int
	tags    []uint64 // pc+1; 0 = invalid
	ctrs    []int
	lru     []uint32
	clock   uint32

	Lookups, HighConf uint64
}

// NewJRS builds the estimator. The configuration must pass Validate;
// lab.Spec.Validate runs the same check before a spec reaches a
// worker, so a malformed config is a 400 at the API boundary rather
// than a panic mid-simulation.
func NewJRS(cfg JRSConfig) *JRS {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Entries / cfg.Ways
	return &JRS{
		cfg:     cfg,
		setMask: uint64(sets - 1),
		ctrMax:  1<<uint(cfg.CtrBits) - 1,
		tags:    make([]uint64, cfg.Entries),
		ctrs:    make([]int, cfg.Entries),
		lru:     make([]uint32, cfg.Entries),
	}
}

// Reset restores the just-constructed state: every entry invalid and
// the counters zero.
func (j *JRS) Reset() {
	clear(j.tags)
	clear(j.ctrs)
	clear(j.lru)
	j.clock = 0
	j.Lookups, j.HighConf = 0, 0
}

func (j *JRS) index(pc, hist uint64) (set uint64, tag uint64) {
	h := hist & (1<<uint(j.cfg.HistoryBits) - 1)
	set = (pc ^ h) & j.setMask
	return set, pc + 1
}

// Lookup reports whether the prediction for the branch at pc under
// global history hist is high-confidence. A tag miss is low-confidence:
// an unknown branch has no evidence of predictability, and erring low
// costs only predication overhead rather than a flush.
func (j *JRS) Lookup(pc, hist uint64) bool {
	j.Lookups++
	set, tag := j.index(pc, hist)
	base := int(set) * j.cfg.Ways
	for w := 0; w < j.cfg.Ways; w++ {
		if j.tags[base+w] == tag {
			j.clock++
			j.lru[base+w] = j.clock
			if j.ctrs[base+w] >= j.cfg.Threshold {
				j.HighConf++
				return true
			}
			return false
		}
	}
	return false
}

// Update trains the estimator at branch retirement: correct indicates
// whether the direction prediction was right. Missing entries are
// allocated with a zeroed counter, evicting LRU.
func (j *JRS) Update(pc, hist uint64, correct bool) {
	set, tag := j.index(pc, hist)
	base := int(set) * j.cfg.Ways
	victim := base
	found := false
	for w := 0; w < j.cfg.Ways; w++ {
		i := base + w
		if j.tags[i] == tag {
			victim = i
			found = true
			break
		}
		if j.tags[i] == 0 {
			victim = i
			break
		}
		if j.lru[i] < j.lru[victim] {
			victim = i
		}
	}
	if !found {
		j.tags[victim] = tag
		j.ctrs[victim] = 0
	}
	if correct {
		if j.ctrs[victim] < j.ctrMax {
			j.ctrs[victim]++
		}
	} else {
		j.ctrs[victim] = 0
	}
	j.clock++
	j.lru[victim] = j.clock
}

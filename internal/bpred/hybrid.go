package bpred

// HybridConfig sizes the hybrid predictor. The zero value is invalid;
// use DefaultHybridConfig (the paper's Table 2 configuration).
type HybridConfig struct {
	GsharePHTEntries int // gshare pattern history table entries
	HistoryBits      int // global history length
	PAsPHTEntries    int // PAs pattern history table entries
	PAsLocalEntries  int // per-address local history table entries
	PAsLocalBits     int // local history length
	SelectorEntries  int // hybrid chooser entries
}

// DefaultHybridConfig is the paper's 64K-entry gshare / PAs hybrid with
// a 64K-entry selector.
func DefaultHybridConfig() HybridConfig {
	return HybridConfig{
		GsharePHTEntries: 64 * 1024,
		HistoryBits:      16,
		PAsPHTEntries:    64 * 1024,
		PAsLocalEntries:  4 * 1024,
		PAsLocalBits:     12,
		SelectorEntries:  64 * 1024,
	}
}

// Pred is one direction prediction with the metadata needed to update
// and repair the predictor later. The front end stores it with the
// in-flight branch.
type Pred struct {
	Taken       bool
	gshareTaken bool
	pasTaken    bool
	useGshare   bool
	// Hist is the global history *before* this prediction was shifted
	// in; Repair(hist, outcome) reconstructs fetch state from it.
	Hist uint64
	// LHist is the branch's speculative local history before the shift;
	// RepairLocal restores it on a flush. Speculative local history is
	// what lets the front end predict a loop exit while dozens of
	// iterations are still in flight — essential for the wish-loop
	// late-exit case (§3.2).
	LHist uint32
}

// Hybrid is a gshare/PAs tournament predictor with speculative global
// history.
type Hybrid struct {
	cfg      HybridConfig
	gshare   []ctr2
	pasPHT   []ctr2
	pasLocal []uint32 // committed local histories (trained at retire)
	pasSpec  []uint32 // speculative local histories (shifted at lookup)
	selector []ctr2
	specHist uint64 // speculatively updated at prediction
	histMask uint64

	// Lookups and correct direction predictions at commit time, for
	// statistics.
	Commits, Correct uint64
}

// NewHybrid builds the predictor. Table sizes must be powers of two.
func NewHybrid(cfg HybridConfig) *Hybrid {
	for _, n := range []int{cfg.GsharePHTEntries, cfg.PAsPHTEntries,
		cfg.PAsLocalEntries, cfg.SelectorEntries} {
		if n <= 0 || n&(n-1) != 0 {
			panic("bpred: table sizes must be powers of two")
		}
	}
	return &Hybrid{
		cfg:      cfg,
		gshare:   newCtrTable(cfg.GsharePHTEntries),
		pasPHT:   newCtrTable(cfg.PAsPHTEntries),
		pasLocal: make([]uint32, cfg.PAsLocalEntries),
		pasSpec:  make([]uint32, cfg.PAsLocalEntries),
		selector: newCtrTable(cfg.SelectorEntries),
		histMask: 1<<uint(cfg.HistoryBits) - 1,
	}
}

// Reset restores the just-constructed state: weakly-taken counters,
// empty histories, zero statistics.
func (h *Hybrid) Reset() {
	fillWeakTaken(h.gshare)
	fillWeakTaken(h.pasPHT)
	fillWeakTaken(h.selector)
	clear(h.pasLocal)
	clear(h.pasSpec)
	h.specHist = 0
	h.Commits, h.Correct = 0, 0
}

func (h *Hybrid) gshareIdx(pc uint64, hist uint64) int {
	return int((pc ^ hist) & uint64(h.cfg.GsharePHTEntries-1))
}

func (h *Hybrid) localIdx(pc uint64) int {
	return int(pc & uint64(h.cfg.PAsLocalEntries-1))
}

func (h *Hybrid) phtIdx(pc uint64, lhist uint32) int {
	lh := uint64(lhist) & (1<<uint(h.cfg.PAsLocalBits) - 1)
	return int((lh | pc<<uint(h.cfg.PAsLocalBits)) & uint64(h.cfg.PAsPHTEntries-1))
}

func (h *Hybrid) selIdx(pc uint64, hist uint64) int {
	return int((pc ^ hist) & uint64(h.cfg.SelectorEntries-1))
}

// Lookup predicts the direction of the conditional branch at pc using
// the current speculative history, and speculatively shifts the
// prediction into the history. The caller keeps the returned Pred for
// Commit and Repair.
func (h *Hybrid) Lookup(pc uint64) Pred {
	hist := h.specHist
	li := h.localIdx(pc)
	lhist := h.pasSpec[li]
	g := h.gshare[h.gshareIdx(pc, hist)].taken()
	pa := h.pasPHT[h.phtIdx(pc, lhist)].taken()
	useG := h.selector[h.selIdx(pc, hist)].taken()
	p := Pred{gshareTaken: g, pasTaken: pa, useGshare: useG, Hist: hist, LHist: lhist}
	if useG {
		p.Taken = g
	} else {
		p.Taken = pa
	}
	h.specHist = (hist<<1 | b2u(p.Taken)) & h.histMask
	h.pasSpec[li] = lhist<<1 | uint32(b2u(p.Taken))
	return p
}

// Repair restores the speculative history after a flush: hist is the
// mispredicted branch's Pred.Hist and taken its actual outcome. For
// flushes not caused by a conditional branch (e.g. a wish-loop no-exit
// redirect from an older point), pass the Pred.Hist of the youngest
// surviving branch with its outcome, or call SetHist directly.
func (h *Hybrid) Repair(hist uint64, taken bool) {
	h.specHist = (hist<<1 | b2u(taken)) & h.histMask
}

// SetHist overwrites the speculative history (checkpoint restore).
func (h *Hybrid) SetHist(hist uint64) { h.specHist = hist & h.histMask }

// RepairLocal restores the branch's speculative local history after a
// flush (lhist is its Pred.LHist, taken its actual outcome). Entries of
// other branches polluted by squashed wrong-path lookups are left as-is
// — hardware with per-branch checkpoint-free repair behaves the same.
func (h *Hybrid) RepairLocal(pc uint64, lhist uint32, taken bool) {
	h.pasSpec[h.localIdx(pc)] = lhist<<1 | uint32(b2u(taken))
}

// RestoreLocal rewinds the branch's speculative local history to its
// pre-lookup value (used when a branch is excluded from history).
func (h *Hybrid) RestoreLocal(pc uint64, lhist uint32) {
	h.pasSpec[h.localIdx(pc)] = lhist
}

// Hist returns the current speculative history.
func (h *Hybrid) Hist() uint64 { return h.specHist }

// Commit trains the predictor with the branch's actual outcome. p must
// be the Pred returned by Lookup for this dynamic branch.
func (h *Hybrid) Commit(pc uint64, p Pred, taken bool) {
	h.Commits++
	if p.Taken == taken {
		h.Correct++
	}
	gi := h.gshareIdx(pc, p.Hist)
	h.gshare[gi] = h.gshare[gi].update(taken)
	// Train the PHT entry that actually made the prediction: the one
	// indexed by the fetch-time speculative local history.
	pi := h.phtIdx(pc, p.LHist)
	h.pasPHT[pi] = h.pasPHT[pi].update(taken)
	li := h.localIdx(pc)
	h.pasLocal[li] = h.pasLocal[li]<<1 | uint32(b2u(taken))
	// Train the selector only when the components disagree.
	if p.gshareTaken != p.pasTaken {
		si := h.selIdx(pc, p.Hist)
		h.selector[si] = h.selector[si].update(p.gshareTaken == taken)
	}
}

// Accuracy returns committed-prediction accuracy in [0,1].
func (h *Hybrid) Accuracy() float64 {
	if h.Commits == 0 {
		return 0
	}
	return float64(h.Correct) / float64(h.Commits)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

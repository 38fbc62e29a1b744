// Package bpred implements the branch-direction and branch-target
// prediction structures of the paper's baseline front end (Table 2):
// a 64K-entry gshare / 64K-entry PAs hybrid with a 64K-entry selector,
// a 4K-entry BTB, a 64-entry return address stack, and a 64K-entry
// indirect target cache. A small loop (trip-count) predictor is also
// provided for the wish-loop ablations suggested in §3.2 of the paper.
//
// Direction counters are updated at retire; the global history register
// is updated speculatively at prediction time and repaired on pipeline
// flushes, which is what an aggressive out-of-order front end does.
package bpred

// ctr2 is a 2-bit saturating counter; values 0..3, taken when >= 2.
type ctr2 uint8

func (c ctr2) taken() bool { return c >= 2 }

func (c ctr2) update(taken bool) ctr2 {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// newCtrTable returns n weakly-taken counters.
func newCtrTable(n int) []ctr2 {
	t := make([]ctr2, n)
	fillWeakTaken(t)
	return t
}

// fillWeakTaken sets every counter of t to weakly taken, doubling a
// filled prefix with copy so a 64K-entry table fills by memmove.
func fillWeakTaken(t []ctr2) {
	if len(t) == 0 {
		return
	}
	t[0] = 2
	for n := 1; n < len(t); n *= 2 {
		copy(t[n:], t[:n])
	}
}

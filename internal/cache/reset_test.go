package cache

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestHierarchyResetMatchesFresh: after random instruction, load and
// store traffic (misses, dirty evictions, bank and bus contention),
// Reset restores exactly the state NewHierarchy builds — the contract
// that lets a halted simulation's hierarchy serve the next one.
func TestHierarchyResetMatchesFresh(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	h := NewHierarchy(cfg)
	rng := rand.New(rand.NewSource(1))
	for cycle := uint64(0); cycle < 50000; cycle++ {
		addr := uint64(rng.Int63n(8 << 20))
		switch rng.Intn(3) {
		case 0:
			h.AccessI(addr, cycle)
		case 1:
			h.AccessD(addr, cycle, false)
		default:
			h.AccessD(addr, cycle, true)
		}
	}
	fresh := NewHierarchy(cfg)
	if reflect.DeepEqual(h, fresh) {
		t.Fatal("traffic left the hierarchy in its initial state; the test exercises nothing")
	}
	h.Reset()
	if !reflect.DeepEqual(h, fresh) {
		t.Error("Reset hierarchy differs from a freshly built one")
	}
}

package conf

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestJRSResetMatchesFresh: after random lookups and updates, Reset
// restores exactly the state NewJRS builds — the contract that lets a
// halted simulation's estimator serve the next one.
func TestJRSResetMatchesFresh(t *testing.T) {
	cfg := DefaultJRSConfig()
	cfg.HistoryBits = 4
	j := NewJRS(cfg)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		pc, hist := uint64(rng.Intn(2048)), rng.Uint64()
		j.Lookup(pc, hist)
		j.Update(pc, hist, rng.Intn(4) > 0)
	}
	fresh := NewJRS(cfg)
	if reflect.DeepEqual(j, fresh) {
		t.Fatal("traffic left the estimator in its initial state; the test exercises nothing")
	}
	j.Reset()
	if !reflect.DeepEqual(j, fresh) {
		t.Error("Reset estimator differs from a freshly constructed one")
	}
}

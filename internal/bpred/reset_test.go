package bpred

import (
	"math/rand"
	"reflect"
	"testing"
)

// The Reset tests drive random traffic through each recycled table,
// Reset it, and require it equal to a freshly constructed one — the
// contract that lets a halted simulation's tables serve the next one.
// Each first checks the traffic changed the table, so a Reset that
// did nothing could not pass.

func TestHybridResetMatchesFresh(t *testing.T) {
	cfg := DefaultHybridConfig()
	h := NewHybrid(cfg)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50000; i++ {
		pc := uint64(rng.Intn(4096))
		taken := rng.Intn(3) > 0
		p := h.Lookup(pc)
		if p.Taken != taken {
			h.Repair(p.Hist, taken)
			h.RepairLocal(pc, p.LHist, taken)
		}
		h.Commit(pc, p, taken)
	}
	requireResetFresh(t, h, NewHybrid(cfg))
}

func TestBTBResetMatchesFresh(t *testing.T) {
	b := NewBTB(4096, 4)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 50000; i++ {
		pc := uint64(rng.Intn(1 << 16))
		if _, ok := b.Lookup(pc); !ok {
			b.Insert(pc, BTBEntry{Target: rng.Intn(1 << 16), IsCond: true, IsWish: rng.Intn(2) == 0, WType: uint8(rng.Intn(3))})
		}
	}
	requireResetFresh(t, b, NewBTB(4096, 4))
}

func TestIndirectCacheResetMatchesFresh(t *testing.T) {
	c := NewIndirectCache(1 << 16)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50000; i++ {
		pc, hist := uint64(rng.Intn(1<<16)), rng.Uint64()
		c.Lookup(pc, hist)
		c.Update(pc, hist, rng.Intn(1<<16))
	}
	requireResetFresh(t, c, NewIndirectCache(1<<16))
}

// TestIndirectCacheTargetEncoding: target 0 is a learned target, not
// the "no target" encoding, and an unlearned entry reads as (-1, false)
// as it did when the table was filled with -1.
func TestIndirectCacheTargetEncoding(t *testing.T) {
	c := NewIndirectCache(16)
	if tgt, ok := c.Lookup(3, 0); ok || tgt != -1 {
		t.Errorf("unlearned entry = (%d, %v), want (-1, false)", tgt, ok)
	}
	c.Update(3, 0, 0)
	if tgt, ok := c.Lookup(3, 0); !ok || tgt != 0 {
		t.Errorf("learned target 0 reads (%d, %v)", tgt, ok)
	}
	c.Update(5, 0, 12345)
	if tgt, ok := c.Lookup(5, 0); !ok || tgt != 12345 {
		t.Errorf("learned target 12345 reads (%d, %v)", tgt, ok)
	}
}

func requireResetFresh[T interface{ Reset() }](t *testing.T, used, fresh T) {
	t.Helper()
	if reflect.DeepEqual(used, fresh) {
		t.Fatal("traffic left the table in its initial state; the test exercises nothing")
	}
	used.Reset()
	if !reflect.DeepEqual(used, fresh) {
		t.Error("Reset table differs from a freshly constructed one")
	}
}

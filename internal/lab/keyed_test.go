package lab

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"testing"

	"wishbranch/internal/compiler"
	"wishbranch/internal/config"
	"wishbranch/internal/workload"
)

// TestKeyedMatchesKey is the pinned-value contract of the cached
// key/hash plumbing: for any spec, the forms Keyed() computes once and
// threads through the lab, serve, and cluster hot paths must equal
// what a fresh Key()/Hash() (and an independent SHA-256) would say.
// If Key() ever changes shape, this catches a stale cached form the
// same commit.
func TestKeyedMatchesKey(t *testing.T) {
	specs := []Spec{
		testSpec(),
		func() Spec { s := testSpec(); s.Variant = compiler.WishJumpJoin; return s }(),
		func() Spec { s := testSpec(); s.Machine = config.DefaultMachine().WithSelectUop(); return s }(),
		func() Spec { s := testSpec(); s.Bench = "mcf"; s.Input = workload.InputC; return s }(),
		func() Spec { s := testSpec(); s.Scale = 0.125; s.MaxCycles = 1000; return s }(),
		{}, // even an ill-formed spec has a computable key
	}
	for i, s := range specs {
		if got, want := s.Key(), fmtKey(s); got != want {
			t.Errorf("spec %d: key bytes moved:\n got %q\nwant %q", i, got, want)
		}
		k := s.Keyed()
		if k.Key != s.Key() {
			t.Errorf("spec %d: cached key %q != live Key() %q", i, k.Key, s.Key())
		}
		if k.Hash != s.Hash() {
			t.Errorf("spec %d: cached hash %q != live Hash() %q", i, k.Hash, s.Hash())
		}
		sum := sha256.Sum256([]byte(k.Key))
		if want := hex.EncodeToString(sum[:]); k.Hash != want {
			t.Errorf("spec %d: cached hash %q != independent SHA-256 %q", i, k.Hash, want)
		}
		if k.Spec != s {
			t.Errorf("spec %d: Keyed dropped or altered the spec", i)
		}
	}
}

// fmtKey is the key format as first written with fmt. Store records
// and the benchmark's pinned digests are addressed by the key's hash,
// so the appending builder must reproduce it byte for byte.
func fmtKey(s Spec) string {
	return fmt.Sprintf("v%d|bench=%s|input=%d|variant=%d|scale=%s|maxcycles=%d|N=%d|L=%d|machine=%s",
		SchemaVersion, s.Bench, int(s.Input), int(s.Variant),
		strconv.FormatFloat(s.Scale, 'g', -1, 64), s.MaxCycles,
		s.Thresholds.WishJump, s.Thresholds.WishLoop, MachineSig(s.Machine))
}

// TestMemoHitZeroAlloc: a warm ResultContext — key, memo probe, wait
// on the finished entry — allocates nothing. The key is built into a
// stack buffer and the store hash is computed on a miss only.
func TestMemoHitZeroAlloc(t *testing.T) {
	l := New()
	s := testSpec()
	s.Scale = 0.02
	want, err := l.Result(s)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if n := testing.AllocsPerRun(200, func() {
		if got, err := l.ResultContext(ctx, s); err != nil || got != want {
			t.Fatalf("memo hit returned %p, %v; want %p", got, err, want)
		}
	}); n != 0 {
		t.Errorf("memo hit allocates %v objects per run, want 0", n)
	}
	if c := l.Counters(); c.Fresh != 1 {
		t.Errorf("counters = %+v, want exactly one fresh run", c)
	}
}

// TestResultKeyedSharesMemoWithResult: a Keyed request and a plain
// Result request for the same spec land on the same memo entry — the
// cached-key path is an optimization, not a second namespace.
func TestResultKeyedSharesMemoWithResult(t *testing.T) {
	l := New()
	s := testSpec()
	s.Scale = 0.02
	if _, err := l.Result(s); err != nil {
		t.Fatal(err)
	}
	if _, err := l.ResultKeyed(t.Context(), s.Keyed()); err != nil {
		t.Fatal(err)
	}
	c := l.Counters()
	if c.Fresh != 1 || c.MemHits != 1 {
		t.Errorf("counters = %+v, want one fresh run and one memo hit", c)
	}
}

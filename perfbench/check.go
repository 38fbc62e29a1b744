package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"

	"wishbranch/internal/api"
	"wishbranch/internal/cpu"
	"wishbranch/internal/lab"
)

// resultDigest is the SHA-256 of a result's binary encoding, the form
// results are pinned in.
func resultDigest(r *cpu.Result) string { return bytesDigest(cpu.AppendResult(nil, r)) }

func bytesDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Checker counts the operations a run attempted and the ones that
// failed: errors, refusals left after client retries, and results
// that do not match their reference digest. It is safe for concurrent
// use.
type Checker struct {
	// FlipOne, when set, flips one byte of the first result checked
	// before comparing it — the benchmark's own self-test that a wrong
	// result is caught.
	FlipOne bool

	attempted, failed atomic.Int64
	flipped           atomic.Bool
	mu                sync.Mutex
	errs              []string
}

// maxErrs bounds the failure messages kept for the report.
const maxErrs = 5

// Op records one attempted operation; err non-nil marks it failed.
func (c *Checker) Op(err error) bool {
	c.attempted.Add(1)
	if err == nil {
		return true
	}
	c.fail(err)
	return false
}

// Late marks an already counted operation as failed (a fresh result
// whose reference is only computed after the timed window).
func (c *Checker) Late(err error) {
	if err != nil {
		c.fail(err)
	}
}

func (c *Checker) fail(err error) {
	c.failed.Add(1)
	c.mu.Lock()
	if len(c.errs) < maxErrs {
		c.errs = append(c.errs, err.Error())
	}
	c.mu.Unlock()
}

// Match compares a result with its reference digest.
func (c *Checker) Match(label string, got *cpu.Result, want string) error {
	if got == nil {
		return fmt.Errorf("%s: no result", label)
	}
	enc := cpu.AppendResult(nil, got)
	if c.FlipOne && len(enc) > 0 && c.flipped.CompareAndSwap(false, true) {
		enc[len(enc)/2] ^= 0x01
	}
	if d := bytesDigest(enc); d != want {
		return fmt.Errorf("%s: result digest %.16s, want %.16s", label, d, want)
	}
	return nil
}

// MatchCampaign checks a campaign answer: one item per spec, in
// request order, each without error and matching its reference.
func (c *Checker) MatchCampaign(specs []lab.Keyed, items []api.CampaignItem, want func(lab.Keyed) string) error {
	if len(items) != len(specs) {
		return fmt.Errorf("campaign answered %d items for %d specs", len(items), len(specs))
	}
	for i, k := range specs {
		it := items[i]
		if it.Key != k.Key {
			return fmt.Errorf("campaign item %d carries key of another spec (out of order)", i)
		}
		if it.Err != "" {
			return fmt.Errorf("campaign item %d: %s", i, it.Err)
		}
		if err := c.Match(k.Spec.String(), it.Result, want(k)); err != nil {
			return fmt.Errorf("campaign item %d: %w", i, err)
		}
	}
	return nil
}

// Attempted and Failed return the counts so far.
func (c *Checker) Attempted() int64 { return c.attempted.Load() }
func (c *Checker) Failed() int64    { return c.failed.Load() }

// FailedFrac is failed ÷ attempted.
func (c *Checker) FailedFrac() float64 {
	return ratio(float64(c.Failed()), float64(c.Attempted()))
}

// Errors returns the first few failure messages.
func (c *Checker) Errors() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.errs...)
}

package main

import (
	"encoding/json"
	"os"
	"testing"

	"wishbranch/internal/api"
	"wishbranch/internal/compiler"
	"wishbranch/internal/config"
	"wishbranch/internal/cpu"
	"wishbranch/internal/lab"
	"wishbranch/internal/workload"
)

func testResult(cycles uint64) *cpu.Result {
	return &cpu.Result{Cycles: cycles, RetiredUops: cycles / 2, FetchedUops: cycles, Halted: true}
}

func testSpecs(n int) []lab.Keyed {
	var ks []lab.Keyed
	for i := 0; i < n; i++ {
		s := lab.Spec{Bench: "gzip", Input: workload.InputA, Variant: compiler.NormalBranch,
			Machine: config.DefaultMachine(), Scale: float64(i + 1), Thresholds: compiler.DefaultThresholds()}
		ks = append(ks, s.Keyed())
	}
	return ks
}

func TestMatchingResultPasses(t *testing.T) {
	var c Checker
	r := testResult(1000)
	if !c.Op(c.Match("r", r, resultDigest(r))) {
		t.Fatalf("an exact result failed: %v", c.Errors())
	}
	if c.Failed() != 0 || c.FailedFrac() != 0 || c.Attempted() != 1 {
		t.Fatalf("failed %d of %d, frac %v; want 0 of 1", c.Failed(), c.Attempted(), c.FailedFrac())
	}
}

// A result one byte away from its pin counts as a failed op, both when
// the wrong bytes come from the program and when the run injects them.
func TestFlippedByteFails(t *testing.T) {
	r := testResult(1000)
	want := resultDigest(r)
	enc := cpu.AppendResult(nil, r)
	for i := range enc {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0x01
		var c Checker
		c.Op(c.Match("r", nil, want)) // no result at all
		var got cpu.Result
		if _, err := cpu.DecodeResult(bad, &got); err == nil {
			c.Op(c.Match("r", &got, want))
		} else {
			c.Op(err) // an undecodable answer is a failed op too
		}
		if c.Failed() != 2 || c.FailedFrac() != 1 {
			t.Fatalf("byte %d flipped: %d failed of %d", i, c.Failed(), c.Attempted())
		}
	}

	c := Checker{FlipOne: true}
	c.Op(c.Match("r", r, want))
	c.Op(c.Match("r", r, want))
	if c.Failed() != 1 || c.FailedFrac() != 0.5 {
		t.Fatalf("injected flip: %d failed of %d, want 1 of 2", c.Failed(), c.Attempted())
	}
}

func campaignAnswer(specs []lab.Keyed, results map[string]*cpu.Result) []api.CampaignItem {
	items := make([]api.CampaignItem, len(specs))
	for i, k := range specs {
		items[i] = api.CampaignItem{Key: k.Key, Result: results[k.Hash]}
	}
	return items
}

func TestCampaignChecks(t *testing.T) {
	specs := testSpecs(4)
	results := make(map[string]*cpu.Result)
	for i, k := range specs {
		results[k.Hash] = testResult(uint64(100 * (i + 1)))
	}
	want := func(k lab.Keyed) string { return resultDigest(results[k.Hash]) }

	good := campaignAnswer(specs, results)
	swapped := campaignAnswer(specs, results)
	swapped[1], swapped[2] = swapped[2], swapped[1]
	wrongResult := campaignAnswer(specs, results)
	wrongResult[3].Result = testResult(401)
	itemErr := campaignAnswer(specs, results)
	itemErr[0] = api.CampaignItem{Key: specs[0].Key, Err: "boom"}

	for _, tc := range []struct {
		name  string
		items []api.CampaignItem
		ok    bool
	}{
		{"exact", good, true},
		{"truncated", good[:3], false},
		{"empty", nil, false},
		{"out of order", swapped, false},
		{"wrong result", wrongResult, false},
		{"item error", itemErr, false},
	} {
		var c Checker
		c.Op(c.MatchCampaign(specs, tc.items, want))
		if ok := c.Failed() == 0; ok != tc.ok {
			t.Errorf("%s: passed=%v, want %v (%v)", tc.name, ok, tc.ok, c.Errors())
		}
		if !tc.ok && c.FailedFrac() != 1 {
			t.Errorf("%s: failed_frac %v, want 1", tc.name, c.FailedFrac())
		}
	}
}

// Every spec of every workload has a pinned digest and nothing else
// does: the run-set and the pins have not drifted apart.
func TestPinsCoverRunSets(t *testing.T) {
	for _, wl := range workloads {
		set, err := setFor(wl)
		if err != nil {
			t.Fatal(err)
		}
		pins, err := loadPins(digestPath(".", wl))
		if err != nil {
			t.Fatal(err)
		}
		if err := checkPinned(set, pins); err != nil {
			t.Error(err)
		}
	}
	mcf, _ := setFor("sim-membound")
	mixed, _ := setFor("sim-mixed")
	if len(mcf.Specs) != 74 || len(mixed.Specs) != 520 {
		t.Errorf("paper run-set splits %d mcf / %d other specs, want 74 / 520", len(mcf.Specs), len(mixed.Specs))
	}
}

// BENCHMARK.json names workloads this program runs and exactly the
// metrics it reports, with the same units and directions.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, err := setFor(w.Name); err != nil {
			t.Errorf("BENCHMARK.json workload %q: %v", w.Name, err)
		}
	}
	for _, sec := range []struct {
		name string
		json []struct{ Name, Unit, Better string }
		defs []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(sec.json) != len(sec.defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", sec.name, len(sec.json), len(sec.defs))
		}
		for i, m := range sec.json {
			d := sec.defs[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %v, program %v", sec.name, i, m, d)
			}
		}
	}
}

package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"wishbranch/internal/exp"
	"wishbranch/internal/lab"
)

// Scales of the three spec sets. At scale 1.0 mcf spends most of its
// host time in cpu.Run (its memory-image init is a fixed cost that
// dominates at small scales). The other eight benchmarks are run at a
// scale that lets a run cover several passes of all 520 specs. The
// serving workload's warm set is small so set-up stays short and the
// write path (fresh runs) costs little simulation.
const (
	memboundScale = 1.0
	mixedScale    = 0.05
	serveScale    = 0.02
)

// specSet is a named, ordered, de-duplicated list of simulation specs
// with the digests its results are pinned to.
type specSet struct {
	Name  string
	Scale float64
	Specs []lab.Keyed
}

// paperRunSet returns the paper campaign's de-duplicated run-set at
// scale, in declaration order: the union of every experiment's Runs,
// the list `wishbench -exp all` warms.
func paperRunSet(scale float64) []lab.Keyed {
	l := exp.NewLab()
	l.Scale = scale
	seen := make(map[string]bool)
	var out []lab.Keyed
	for _, e := range exp.All() {
		if e.Runs == nil {
			continue
		}
		for _, s := range e.Runs(l) {
			k := s.Keyed()
			if !seen[k.Key] {
				seen[k.Key] = true
				out = append(out, k)
			}
		}
	}
	return out
}

// splitMcf partitions a run-set into mcf specs and the rest.
func splitMcf(all []lab.Keyed) (mcf, rest []lab.Keyed) {
	for _, k := range all {
		if k.Spec.Bench == "mcf" {
			mcf = append(mcf, k)
		} else {
			rest = append(rest, k)
		}
	}
	return mcf, rest
}

// setFor builds the spec set a workload runs. serve-cluster's warm set
// is the whole paper run-set at serveScale.
func setFor(workload string) (specSet, error) {
	switch workload {
	case "sim-membound":
		mcf, _ := splitMcf(paperRunSet(memboundScale))
		return specSet{Name: workload, Scale: memboundScale, Specs: mcf}, nil
	case "sim-mixed":
		_, rest := splitMcf(paperRunSet(mixedScale))
		return specSet{Name: workload, Scale: mixedScale, Specs: rest}, nil
	case "serve-cluster":
		return specSet{Name: workload, Scale: serveScale, Specs: paperRunSet(serveScale)}, nil
	}
	return specSet{}, fmt.Errorf("unknown workload %q", workload)
}

// permuted returns a seeded permutation of ks.
func permuted(ks []lab.Keyed, rng *rand.Rand) []lab.Keyed {
	out := append([]lab.Keyed(nil), ks...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// digestPath is where a spec set's pinned result digests live.
func digestPath(dir, name string) string { return filepath.Join(dir, "digests", name+".txt") }

// loadPins reads a digest file: one "<spec hash> <result digest>
// <label>" line per spec, '#' lines are comments.
func loadPins(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("pinned digests: %w", err)
	}
	defer f.Close()
	pins := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("pinned digests: %s: malformed line %q", path, line)
		}
		pins[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("pinned digests: %s: %w", path, err)
	}
	return pins, nil
}

// checkPinned reports a spec set whose specs are not all pinned.
func checkPinned(set specSet, pins map[string]string) error {
	missing := 0
	for _, k := range set.Specs {
		if pins[k.Hash] == "" {
			missing++
		}
	}
	if missing > 0 || len(pins) != len(set.Specs) {
		return fmt.Errorf("%s: %d of %d specs have no pinned digest and the file pins %d specs; "+
			"the run-set changed (regenerating digests is a deliberate model change)",
			set.Name, missing, len(set.Specs), len(pins))
	}
	return nil
}

// writePins writes the digest file for set from its results.
func writePins(path string, set specSet, digests map[string]string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return err
	}
	ks := append([]lab.Keyed(nil), set.Specs...)
	sort.Slice(ks, func(i, j int) bool { return ks[i].Hash < ks[j].Hash })
	var b strings.Builder
	fmt.Fprintf(&b, "# Pinned result digests of the %s spec set (%d specs, scale %g, result store schema v%d).\n",
		set.Name, len(ks), set.Scale, lab.SchemaVersion)
	b.WriteString("# <sha256 of the spec key> <sha256 of cpu.AppendResult bytes> <spec label>\n")
	b.WriteString("# Regenerate with: bash perfbench/run.sh --regen (a deliberate model change, never part of a speed change)\n")
	for _, k := range ks {
		d := digests[k.Hash]
		if d == "" {
			return fmt.Errorf("%s: no result for %s", set.Name, k.Spec)
		}
		fmt.Fprintf(&b, "%s %s %s\n", k.Hash, d, strings.ReplaceAll(k.Spec.String(), " ", "_"))
	}
	return os.WriteFile(path, []byte(b.String()), 0o666)
}

package lab

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Store lifecycle management: an optional size bound with
// LRU-by-access eviction. Without SetMaxBytes the store is unbounded
// and the GC costs nothing (one nil check per access); with it, every
// Get hit and Put bumps the record's logical access clock, and any Put
// that pushes the store past the bound evicts least-recently-accessed
// records until it fits — except records pinned by an open campaign
// journal, which are never evicted: a journal frame referencing a
// store entry must stay servable for the whole resume window
// (DESIGN.md §15).
//
// Eviction is advisory, never load-bearing: an evicted record is just
// a future store miss that re-simulates, so a bound that is too tight
// degrades a warm campaign to a cold one and nothing else
// (TestEvictionNeverBreaksCampaign).

type gcState struct {
	maxBytes  int64
	bytes     int64
	clock     int64
	entries   map[string]*gcEntry // file path → entry
	pinned    map[string]bool     // content hash → pinned
	evictions uint64
}

type gcEntry struct {
	size  int64
	clock int64
	hash  string
}

// gcMu guards gc. It is separate from any per-record state: Get and
// Put touch it once per call, which is noise next to the file IO they
// already do.
type storeGC struct {
	mu sync.Mutex
	st *gcState
}

// SetMaxBytes bounds the store's on-disk size (records of the current
// schema generation; older-generation directories are dead weight the
// bound does not count — see CollectGenerations). It scans the store
// once to learn current sizes, seeding access order from file
// modification times (oldest = evicted first), then evicts immediately
// if already over. n <= 0 removes the bound.
func (s *Store) SetMaxBytes(n int64) error {
	s.gc.mu.Lock()
	defer s.gc.mu.Unlock()
	if n <= 0 {
		s.gc.st = nil
		return nil
	}
	st := &gcState{
		maxBytes: n,
		entries:  make(map[string]*gcEntry),
		pinned:   make(map[string]bool),
	}
	if prev := s.gc.st; prev != nil {
		st.pinned = prev.pinned
		st.evictions = prev.evictions
	}
	for h := range s.prePins {
		st.pinned[h] = true
	}
	s.prePins = nil
	type scanned struct {
		path string
		size int64
		mod  int64
	}
	var files []scanned
	root := filepath.Join(s.dir, schemaDirName())
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		name := d.Name()
		if strings.HasPrefix(name, ".") { // in-flight temp files
			return nil
		}
		info, ierr := d.Info()
		if ierr != nil {
			return nil // raced with a concurrent eviction or rename
		}
		files = append(files, scanned{path, info.Size(), info.ModTime().UnixNano()})
		return nil
	})
	if err != nil {
		return fmt.Errorf("lab: store gc scan: %w", err)
	}
	sort.Slice(files, func(i, j int) bool {
		if files[i].mod != files[j].mod {
			return files[i].mod < files[j].mod
		}
		return files[i].path < files[j].path // deterministic tie-break
	})
	for _, f := range files {
		st.clock++
		st.entries[f.path] = &gcEntry{size: f.size, clock: st.clock, hash: hashOfRecordPath(f.path)}
		st.bytes += f.size
	}
	s.gc.st = st
	s.evictLocked()
	return nil
}

// hashOfRecordPath recovers the content hash from a record filename
// (<hash>.bin, or a leftover <hash>.json from a store written before
// the binary codec — never read, but counted and evictable so an old
// store directory still honours its bound), the identity Pin operates
// on.
func hashOfRecordPath(path string) string {
	base := filepath.Base(path)
	if i := strings.IndexByte(base, '.'); i >= 0 {
		return base[:i]
	}
	return base
}

// Pin marks a key's record as never evictable — the journal-referenced
// set. Pinning is idempotent and survives SetMaxBytes reconfiguration.
func (s *Store) Pin(key string) { s.PinHashed(hashKey(key)) }

// PinHashed is Pin with a precomputed content hash.
func (s *Store) PinHashed(hash string) {
	s.gc.mu.Lock()
	defer s.gc.mu.Unlock()
	if s.gc.st == nil {
		// Remember pins set before (or without) a bound, so enabling GC
		// later still honours them.
		if s.prePins == nil {
			s.prePins = make(map[string]bool)
		}
		s.prePins[hash] = true
		return
	}
	s.gc.st.pinned[hash] = true
}

// MaxBytes returns the configured size bound (0 = unbounded).
func (s *Store) MaxBytes() int64 {
	s.gc.mu.Lock()
	defer s.gc.mu.Unlock()
	if s.gc.st == nil {
		return 0
	}
	return s.gc.st.maxBytes
}

// Bytes returns the tracked on-disk size of the current-generation
// records (0 when no bound is set — the store is not scanned).
func (s *Store) Bytes() int64 {
	s.gc.mu.Lock()
	defer s.gc.mu.Unlock()
	if s.gc.st == nil {
		return 0
	}
	return s.gc.st.bytes
}

// Evictions returns how many records the GC has removed.
func (s *Store) Evictions() uint64 {
	s.gc.mu.Lock()
	defer s.gc.mu.Unlock()
	if s.gc.st == nil {
		return 0
	}
	return s.gc.st.evictions
}

// Pinned returns how many content hashes are pinned.
func (s *Store) Pinned() int {
	s.gc.mu.Lock()
	defer s.gc.mu.Unlock()
	if s.gc.st != nil {
		return len(s.gc.st.pinned)
	}
	return len(s.prePins)
}

// touch bumps a record's access clock (LRU recency). No-op without a
// bound.
func (s *Store) touch(path string) {
	s.gc.mu.Lock()
	defer s.gc.mu.Unlock()
	st := s.gc.st
	if st == nil {
		return
	}
	if e, ok := st.entries[path]; ok {
		st.clock++
		e.clock = st.clock
	}
}

// account records a fresh or rewritten record of size bytes at path,
// then evicts until the store fits the bound again.
func (s *Store) account(path string, size int64) {
	s.gc.mu.Lock()
	defer s.gc.mu.Unlock()
	st := s.gc.st
	if st == nil {
		return
	}
	st.clock++
	if e, ok := st.entries[path]; ok {
		st.bytes += size - e.size
		e.size = size
		e.clock = st.clock
	} else {
		st.entries[path] = &gcEntry{size: size, clock: st.clock, hash: hashOfRecordPath(path)}
		st.bytes += size
	}
	s.evictLocked()
}

// evictLocked removes least-recently-accessed unpinned records until
// the store fits maxBytes (or only pinned records remain). Called with
// gc.mu held.
func (s *Store) evictLocked() {
	st := s.gc.st
	for st.bytes > st.maxBytes {
		var victimPath string
		var victim *gcEntry
		for path, e := range st.entries {
			if st.pinned[e.hash] {
				continue
			}
			if victim == nil || e.clock < victim.clock ||
				(e.clock == victim.clock && path < victimPath) {
				victimPath, victim = path, e
			}
		}
		if victim == nil {
			return // everything left is pinned; the bound yields
		}
		os.Remove(victimPath) // a miss either way; ignore races
		st.bytes -= victim.size
		delete(st.entries, victimPath)
		st.evictions++
	}
}

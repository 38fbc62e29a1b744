// Package emu is the functional (architectural) emulator for the µop
// ISA. It plays the role the paper's Itanium-II + Pin trace generation
// plays: it defines the architecturally correct execution of a program
// and supplies the timing simulator with branch outcomes, predicate
// values, and memory addresses — including the ability to walk wrong
// paths without perturbing committed state (the paper forked a Pin
// thread down the mispredicted path for the same purpose).
package emu

import "slices"

// Data memory is word-addressable in 8-byte units and sparsely paged so
// workloads can use multi-megabyte footprints (pointer chasing in the
// mcf stand-in) without preallocating.
const (
	pageWordShift = 9 // 512 words = 4 KiB pages
	pageWords     = 1 << pageWordShift
)

type page [pageWords]int64

// Memory is a sparse 64-bit word-addressable memory. Addresses are byte
// addresses; accesses are aligned to 8 bytes by masking the low bits
// (the machine has no alignment traps). A one-entry page cache fronts
// the page map: workload access patterns are strongly page-local, so
// most loads and stores skip the map probe — the single hottest
// operation in the functional emulator after the interpreter switch
// itself.
//
// A Memory may read through to a shared Image (see Image.Init): its
// own pages shadow the image's, and the first Store to an image page
// copies that page, so the image itself is never written.
type Memory struct {
	pages    map[uint64]*page // pages this memory owns
	image    *Image           // shared read-only base; nil = none
	lastPN   uint64
	lastPage *page // nil until the first hit caches a page
	lastOwn  *page // lastPage when a store cached it (an own page), else nil
}

// NewMemory returns an empty memory; all words read as zero.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*page)}
}

// Load reads the 64-bit word containing byte address addr.
func (m *Memory) Load(addr uint64) int64 {
	w := addr >> 3
	pn := w >> pageWordShift
	p := m.lastPage
	if p == nil || pn != m.lastPN {
		p = m.pages[pn]
		if p == nil && m.image != nil {
			p = m.image.pages[pn]
		}
		if p == nil {
			return 0
		}
		m.lastPN, m.lastPage, m.lastOwn = pn, p, nil
	}
	return p[w&(pageWords-1)]
}

// Store writes the 64-bit word containing byte address addr. The
// first store to an image page copies it into the memory's own pages.
func (m *Memory) Store(addr uint64, v int64) {
	w := addr >> 3
	pn := w >> pageWordShift
	p := m.lastOwn
	if p == nil || pn != m.lastPN {
		p = m.pages[pn]
		if p == nil {
			p = new(page)
			if m.image != nil {
				if s := m.image.pages[pn]; s != nil {
					*p = *s
				}
			}
			m.pages[pn] = p
		}
		m.lastPN, m.lastPage, m.lastOwn = pn, p, p
	}
	p[w&(pageWords-1)] = v
}

// WriteWords stores a contiguous run of 64-bit words starting at base.
func (m *Memory) WriteWords(base uint64, words []int64) {
	for i, v := range words {
		m.Store(base+uint64(i)*8, v)
	}
}

// Footprint returns the number of bytes of memory touched so far
// (page-granular), image pages included.
func (m *Memory) Footprint() uint64 {
	n := len(m.pages)
	if m.image != nil {
		n += len(m.image.pages)
		for pn := range m.pages {
			if m.image.pages[pn] != nil {
				n--
			}
		}
	}
	return uint64(n) * pageWords * 8
}

// Image is a frozen memory image, shared read-only by every Memory
// initialized from it. A workload's initial data depends only on the
// workload and its input size, so one Image serves every simulation of
// them; each simulation's Memory copies a page only when it first
// stores to it.
type Image struct {
	pages map[uint64]*page
}

// NewImage runs init over an empty memory and freezes the result.
func NewImage(init func(*Memory)) *Image {
	m := NewMemory()
	init(m)
	return &Image{pages: m.pages}
}

// Init makes img the initial contents of m, which must be untouched:
// no stores and no image yet. It has the shape of a memory initializer
// (workload.MemInit), so an Image can stand wherever one is expected.
func (img *Image) Init(m *Memory) {
	if len(m.pages) != 0 || m.image != nil {
		panic("emu: a memory image initializes an untouched memory only")
	}
	m.image = img
}

// Fingerprint hashes the image's contents: FNV-1a over 64-bit words,
// each page number in ascending order followed by the page's words.
// It is cheap enough to take at construction and again after a
// campaign, and changes if any simulation wrote through to a shared
// page.
func (img *Image) Fingerprint() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	pns := make([]uint64, 0, len(img.pages))
	for pn := range img.pages {
		pns = append(pns, pn)
	}
	slices.Sort(pns)
	for _, pn := range pns {
		h = (h ^ pn) * prime
		for _, w := range img.pages[pn] {
			h = (h ^ uint64(w)) * prime
		}
	}
	return h
}

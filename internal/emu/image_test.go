package emu

import "testing"

func testImage() *Image {
	return NewImage(func(m *Memory) {
		for i := uint64(0); i < 3*pageWords; i++ {
			m.Store(0x10000+8*i, int64(i+1))
		}
		m.Store(0x900000, 42)
	})
}

// TestImageCopyOnWrite: memories initialized from one image read its
// words, and a store lands in a private copy of the page — visible to
// later loads of that memory, invisible to the image and to every
// other memory sharing it.
func TestImageCopyOnWrite(t *testing.T) {
	img := testImage()
	fp := img.Fingerprint()
	a, b := NewMemory(), NewMemory()
	img.Init(a)
	img.Init(b)
	if got := a.Load(0x10000 + 8*5); got != 6 {
		t.Fatalf("image word reads %d, want 6", got)
	}
	a.Store(0x10000+8*5, -1) // the page cache holds the image page here
	if got := a.Load(0x10000 + 8*5); got != -1 {
		t.Errorf("store not visible to its own memory: %d", got)
	}
	if got := a.Load(0x10000 + 8*6); got != 7 {
		t.Errorf("copied page lost an image word: %d, want 7", got)
	}
	if got := b.Load(0x10000 + 8*5); got != 6 {
		t.Errorf("store leaked into a sibling memory: %d", got)
	}
	a.Store(0x500000, 9) // a page the image does not have
	if got := a.Load(0x500000); got != 9 {
		t.Errorf("fresh page reads %d, want 9", got)
	}
	if got := b.Load(0x500000); got != 0 {
		t.Errorf("sibling reads %d from a page only the other memory wrote", got)
	}
	if img.Fingerprint() != fp {
		t.Error("a store reached the shared image")
	}
	// The image has 4 pages; a owns one copy of an image page and one
	// page of its own.
	if got, want := a.Footprint(), uint64(5*pageWords*8); got != want {
		t.Errorf("footprint %d, want %d", got, want)
	}
}

// TestImageMatchesDirectInit: a memory initialized from an image reads
// exactly what running the initializer into it would have stored.
func TestImageMatchesDirectInit(t *testing.T) {
	init := func(m *Memory) {
		for i := uint64(0); i < 5000; i++ {
			m.Store(i*i*8, int64(i)^0x5a5a)
		}
	}
	direct, shared := NewMemory(), NewMemory()
	init(direct)
	NewImage(init).Init(shared)
	for i := uint64(0); i < 5000; i++ {
		for _, addr := range []uint64{i * i * 8, i*i*8 + 8} {
			if d, s := direct.Load(addr), shared.Load(addr); d != s {
				t.Fatalf("word %#x: direct %d, shared %d", addr, d, s)
			}
		}
	}
	if direct.Footprint() != shared.Footprint() {
		t.Errorf("footprint direct %d, shared %d", direct.Footprint(), shared.Footprint())
	}
}

// TestImageFingerprintSensitive: the fingerprint changes with any word
// of any page, so a write that reached a shared page is caught.
func TestImageFingerprintSensitive(t *testing.T) {
	img := testImage()
	fp := img.Fingerprint()
	for pn, p := range img.pages {
		p[pageWords-1] ^= 1
		if img.Fingerprint() == fp {
			t.Errorf("fingerprint missed a flipped bit in page %#x", pn)
		}
		p[pageWords-1] ^= 1
	}
	if img.Fingerprint() != fp {
		t.Error("fingerprint did not recover after undoing the flips")
	}
}

// TestImageInitNeedsUntouchedMemory: an image is the initial contents
// of a memory, so installing it into one that already holds data is a
// programming error.
func TestImageInitNeedsUntouchedMemory(t *testing.T) {
	m := NewMemory()
	m.Store(0, 1)
	defer func() {
		if recover() == nil {
			t.Error("Init on a written memory did not panic")
		}
	}()
	testImage().Init(m)
}

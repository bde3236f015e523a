package trace

import "memdep/internal/isa"

// pageBits selects the page size of the sparse memory: 2^pageBits words per
// page.
const pageBits = 9

const (
	pageWords = 1 << pageBits
	pageMask  = pageWords - 1
)

// Memory is a sparse, word-granular memory image.  Addresses are byte
// addresses; accesses are word aligned (the functional simulator aligns them
// before calling in).  The zero value is ready to use.
type Memory struct {
	pages map[uint64]*[pageWords]int64
}

// NewMemory returns an empty memory image.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*[pageWords]int64)}
}

func split(addr uint64) (page uint64, offset uint64) {
	w := addr / isa.WordSize
	return w >> pageBits, w & pageMask
}

// ReadWord returns the word stored at the (word-aligned) byte address addr.
// Unwritten memory reads as zero.
//
//memdep:hotpath
func (m *Memory) ReadWord(addr uint64) int64 {
	page, off := split(addr)
	p, ok := m.pages[page]
	if !ok {
		return 0
	}
	return p[off]
}

// WriteWord stores value at the (word-aligned) byte address addr.
//
//memdep:hotpath
func (m *Memory) WriteWord(addr uint64, value int64) {
	page, off := split(addr)
	p, ok := m.pages[page]
	if !ok {
		p = new([pageWords]int64) //lint:alloc-ok a page per 4 KiB of footprint touched, once per run
		m.pages[page] = p
	}
	p[off] = value
}

package cmp

// Line addresses are cache-line granular (the byte address divided by
// LineBytes); the memory hierarchy below works entirely in line units.

// Cache geometry of Table 4: 32 KB 4-way private L1s with 64 B lines.
const (
	LineBytes = 64
	L1Sets    = 128 // 32 KB / 64 B / 4 ways
	L1Ways    = 4
)

// LineState is the coherence state of a line in an L1 (MESI, plus the
// Owned state used when the protocol is MOESI).
type LineState uint8

// Coherence states.
const (
	Invalid LineState = iota
	Shared
	Exclusive
	Modified
	// Owned holds a dirty line while other caches share clean copies;
	// the owner supplies data on forwards and writes back on eviction
	// (MOESI only).
	Owned
)

func (s LineState) String() string {
	switch s {
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	case Owned:
		return "O"
	default:
		return "I"
	}
}

// Dirty reports whether the state obliges a write-back on eviction.
func (s LineState) Dirty() bool { return s == Modified || s == Owned }

// Protocol selects the coherence protocol of the CMP substrate.
type Protocol uint8

// Protocols.
const (
	// MESI is the paper's protocol (§4.1.2): a read forward downgrades
	// the dirty owner to Shared and writes the line back immediately.
	MESI Protocol = iota
	// MOESI adds the Owned state: the dirty owner keeps supplying
	// readers cache-to-cache and defers the write-back to eviction,
	// trading directory simplicity for less write-back traffic.
	MOESI
)

func (p Protocol) String() string {
	if p == MOESI {
		return "MOESI"
	}
	return "MESI"
}

// l1Line is one L1 tag entry.
type l1Line struct {
	addr  uint32 // line address
	state LineState
	lru   uint64
}

// L1 is a private set-associative write-back cache with LRU replacement.
type L1 struct {
	sets  [L1Sets][L1Ways]l1Line
	clock uint64
}

func (c *L1) set(addr uint32) *[L1Ways]l1Line { return &c.sets[addr%L1Sets] }

// Lookup returns the line's state (Invalid on miss) and touches LRU.
func (c *L1) Lookup(addr uint32) LineState {
	set := c.set(addr)
	for i := range set {
		if set[i].state != Invalid && set[i].addr == addr {
			c.clock++
			set[i].lru = c.clock
			return set[i].state
		}
	}
	return Invalid
}

// SetState updates the state of a resident line; it is a no-op when the
// line is not resident (e.g. an invalidation racing an eviction).
func (c *L1) SetState(addr uint32, s LineState) {
	set := c.set(addr)
	for i := range set {
		if set[i].state != Invalid && set[i].addr == addr {
			if s == Invalid {
				set[i] = l1Line{}
			} else {
				set[i].state = s
			}
			return
		}
	}
}

// Fill installs a line, returning the evicted victim (if any) so the
// caller can emit a write-back for Modified victims.
func (c *L1) Fill(addr uint32, s LineState) (victim uint32, victimState LineState) {
	set := c.set(addr)
	c.clock++
	// Reuse an invalid way first.
	for i := range set {
		if set[i].state == Invalid {
			set[i] = l1Line{addr: addr, state: s, lru: c.clock}
			return 0, Invalid
		}
	}
	// Evict LRU.
	v := 0
	for i := 1; i < L1Ways; i++ {
		if set[i].lru < set[v].lru {
			v = i
		}
	}
	victim, victimState = set[v].addr, set[v].state
	set[v] = l1Line{addr: addr, state: s, lru: c.clock}
	return victim, victimState
}

// dirEntry is the distributed-directory state of one line at its home
// L2 bank: which L1s share it and which (if any) owns it modified.
type dirEntry struct {
	sharers uint16 // bitmask over CPUs
	owner   int8   // CPU index holding M/E, -1 if none
}

// Directory is one L2 bank's local directory (§4.1.2: "each bank
// maintains its own local directory").
type Directory struct {
	lines map[uint32]*dirEntry
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{lines: make(map[uint32]*dirEntry)}
}

// Entry returns the directory entry for a line, creating it on first
// touch.
func (d *Directory) Entry(addr uint32) *dirEntry {
	e, ok := d.lines[addr]
	if !ok {
		e = &dirEntry{owner: -1}
		d.lines[addr] = e
	}
	return e
}

// Sharers returns the CPU indices currently sharing the line.
func (e *dirEntry) Sharers() []int {
	var out []int
	for i := 0; i < 16; i++ {
		if e.sharers&(1<<i) != 0 {
			out = append(out, i)
		}
	}
	return out
}

func (e *dirEntry) addSharer(cpu int)   { e.sharers |= 1 << cpu }
func (e *dirEntry) clearSharer(cpu int) { e.sharers &^= 1 << cpu }
func (e *dirEntry) clearAll()           { e.sharers = 0; e.owner = -1 }

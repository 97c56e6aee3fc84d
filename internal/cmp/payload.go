package cmp

import (
	"math/rand"

	"mira/internal/core"
	"mira/internal/traffic"
)

// Payload synthesis. Data packets carry one 64 B cache line as 4 flits
// of 4 words each; word values are drawn from the workload's frequent-
// pattern profile so that the layer-shutdown detector (internal/core)
// sees realistic redundancy. Control packets carry a line address plus
// small metadata, which fits in the top layer's word: address/coherence
// flits are the "short address flits" of §1.

// wordsPerFlit matches core.WordBits on a 128-bit flit.
const wordsPerFlit = 4

// flitsPerLine is a 64 B line over 128-bit flits.
const flitsPerLine = 4

// freqPatternWords are representative non-zero frequent patterns
// (repeated bytes, sign-extended halfwords) from the Alameldeen & Wood
// taxonomy. They compress well but are not all-0/all-1, so they do NOT
// count as redundant for layer shutdown.
var freqPatternWords = []uint32{
	0x00000041, 0x0000ff13, 0x7f7f7f7f, 0x20202020, 0x00010001,
}

// sampleWord draws one payload word and reports its pattern class.
func sampleWord(p traffic.PatternProfile, rng *rand.Rand) (uint32, traffic.WordPattern) {
	pat := p.SampleWord(rng)
	switch pat {
	case traffic.PatternZero:
		return 0, pat
	case traffic.PatternOne:
		return ^uint32(0), pat
	case traffic.PatternFreq:
		return freqPatternWords[rng.Intn(len(freqPatternWords))], pat
	default:
		// Irregular data: re-draw until neither all-0 nor all-1 (the
		// probability of hitting either is ~2^-31).
		for {
			v := rng.Uint32()
			if v != 0 && v != ^uint32(0) {
				return v, pat
			}
		}
	}
}

// line is a cache line's payload, flit-major.
type line [flitsPerLine][wordsPerFlit]uint32

// dataPayload synthesizes a cache line, counting word patterns into
// counts.
func dataPayload(p traffic.PatternProfile, rng *rand.Rand, counts *[traffic.NumPatterns]int64) (l line) {
	for f := range l {
		for w := range l[f] {
			v, pat := sampleWord(p, rng)
			l[f][w] = v
			counts[pat]++
		}
	}
	return l
}

// lineLayers interns every data packet's per-flit active layers: flit f
// of entry k needs k>>(2f)&3 + 1 of its wordsPerFlit layers.
var lineLayers = func() (t [1 << (2 * flitsPerLine)][flitsPerLine]uint8) {
	for k := range t {
		for f := range t[k] {
			t[k][f] = uint8(k>>(2*f)&3 + 1)
		}
	}
	return t
}()

// layers returns the line's per-flit active layers (core.ActiveLayers),
// interned: the slice is shared and must not be written.
func (l *line) layers() []uint8 {
	k := 0
	for f := range l {
		k |= int(core.ActiveLayers(l[f][:])-1) << (2 * f)
	}
	return lineLayers[k][:]
}

// controlLayers are an address/coherence packet's active layers, shared
// like lineLayers: the 32-bit line address fills the top layer's word and
// zeros the rest, so such flits always qualify as short.
var controlLayers = []uint8{1}

package core

// Short-flit detection (§3.2.1). In the multi-layered router the flit is
// striped across L layers, the least-significant word in the top layer
// (closest to the heat sink) and the most-significant in the bottom. A
// per-layer zero/one detector decides whether the layer's word carries
// information: all-0 and all-1 words are redundant (they are the sign /
// zero extensions that frequent-pattern analysis shows dominate NUCA
// data, Figure 1), so every layer above the highest informative word can
// be clock-gated for this flit.

// WordBits is the per-layer datapath width: a 128-bit flit over 4 layers
// carries 32-bit words.
const WordBits = 32

// wordRedundant reports whether a 32-bit word is all zeros or all ones,
// i.e. the layer holding it can be shut down if no higher layer is
// needed.
func wordRedundant(w uint32) bool { return w == 0 || w == ^uint32(0) }

// ActiveLayers returns how many layers a flit with the given payload
// words needs, scanning from the most-significant word down to the first
// informative one. words[0] is the LSB word (top layer). The top layer
// is always active (it carries the flow-control state), so the result is
// in [1, len(words)]. Empty input returns 1.
func ActiveLayers(words []uint32) uint8 {
	for i := len(words) - 1; i >= 1; i-- {
		if !wordRedundant(words[i]) {
			return uint8(i + 1)
		}
	}
	return 1
}

// IsShort reports whether the flit needs only the top layer.
func IsShort(words []uint32) bool { return ActiveLayers(words) == 1 }

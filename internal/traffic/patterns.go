// Package traffic provides the synthetic workloads of the MIRA
// evaluation (uniform random and NUCA-constrained bimodal traffic), the
// flit data-pattern model that drives the short-flit layer-shutdown
// technique, and a replayable trace format for application-driven runs.
package traffic

import (
	"fmt"
	"math/rand"
)

// WordPattern classifies one 32-bit word of flit payload, following the
// frequent-pattern taxonomy of Alameldeen & Wood that Figure 1 of the
// paper is based on.
type WordPattern uint8

// Word pattern categories.
const (
	PatternZero  WordPattern = iota // all 0s
	PatternOne                      // all 1s
	PatternFreq                     // other frequent pattern (sign-ext., repeated byte)
	PatternOther                    // irregular data
	NumPatterns
)

func (p WordPattern) String() string {
	switch p {
	case PatternZero:
		return "all-0"
	case PatternOne:
		return "all-1"
	case PatternFreq:
		return "frequent"
	default:
		return "other"
	}
}

// PatternProfile gives the probability of each word pattern in a
// workload's data payloads, plus the fraction of its flits that are
// short (all words beyond the top layer's redundant). The per-workload
// instances live in internal/cmp/workloads.go.
type PatternProfile struct {
	// Word-level pattern probabilities; must sum to <= 1, the
	// remainder is PatternOther.
	Zero, One, Freq float64
}

// Validate checks probability bounds.
func (p PatternProfile) Validate() error {
	for _, v := range []float64{p.Zero, p.One, p.Freq} {
		if v < 0 || v > 1 {
			return fmt.Errorf("traffic: pattern probability %v out of [0,1]", v)
		}
	}
	if s := p.Zero + p.One + p.Freq; s > 1+1e-9 {
		return fmt.Errorf("traffic: pattern probabilities sum to %v > 1", s)
	}
	return nil
}

// SampleWord draws one word pattern.
func (p PatternProfile) SampleWord(rng *rand.Rand) WordPattern {
	u := rng.Float64()
	switch {
	case u < p.Zero:
		return PatternZero
	case u < p.Zero+p.One:
		return PatternOne
	case u < p.Zero+p.One+p.Freq:
		return PatternFreq
	default:
		return PatternOther
	}
}

// ShortFlitProfile is a degenerate profile where exactly the given
// fraction of flits is fully short (1 active layer) and the rest are
// full-width. It is used for the controlled 0 % / 25 % / 50 % short-flit
// sweeps of Figures 12 and 13.
type ShortFlitProfile struct {
	Frac   float64
	Layers int
}

// SampleLayers draws per-flit active layers for a packet of size flits.
func (s ShortFlitProfile) SampleLayers(rng *rand.Rand, size int) []uint8 {
	if s.Frac <= 0 {
		return nil // all layers active
	}
	out := make([]uint8, size)
	for i := range out {
		if rng.Float64() < s.Frac {
			out[i] = 1
		} else {
			out[i] = uint8(s.Layers)
		}
	}
	return out
}

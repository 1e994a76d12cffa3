// Package branchsim implements the branch-direction predictors used by the
// performance-simulator substrate: a simple bimodal predictor (per-PC 2-bit
// counters) and a gshare predictor (global history XOR PC). The cloning use
// case targets the misprediction rate this package reports; the timing model
// charges a squash penalty for every mispredicted branch.
package branchsim

import (
	"fmt"
	"slices"
)

// Kind selects the prediction scheme.
type Kind uint8

// Predictor kinds.
const (
	// Bimodal indexes a table of 2-bit counters with the branch PC.
	Bimodal Kind = iota
	// GShare XORs the global history register with the branch PC.
	GShare
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case Bimodal:
		return "bimodal"
	case GShare:
		return "gshare"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Config describes a predictor.
type Config struct {
	// Kind is the prediction scheme.
	Kind Kind
	// TableBits is log2 of the number of 2-bit counters.
	TableBits int
	// HistoryBits is the global-history length for GShare (ignored for
	// Bimodal).
	HistoryBits int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.TableBits < 4 || c.TableBits > 24 {
		return fmt.Errorf("branchsim: table bits %d outside [4,24]", c.TableBits)
	}
	if c.Kind == GShare && (c.HistoryBits < 1 || c.HistoryBits > c.TableBits) {
		return fmt.Errorf("branchsim: history bits %d outside [1,%d]", c.HistoryBits, c.TableBits)
	}
	if c.Kind != Bimodal && c.Kind != GShare {
		return fmt.Errorf("branchsim: unknown predictor kind %d", c.Kind)
	}
	return nil
}

// Stats holds prediction statistics.
type Stats struct {
	Branches    uint64
	Mispredicts uint64
}

// MispredictRate returns Mispredicts/Branches (0 when no branches executed).
func (s Stats) MispredictRate() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Branches)
}

// Predictor is a direction predictor with 2-bit saturating counters.
type Predictor struct {
	cfg   Config
	table []uint8
	// fresh is the table as New builds it, which Reset copies back.
	fresh   []uint8
	mask    uint64
	history uint64
	histMsk uint64
	stats   Stats
}

// New builds a predictor. Counters start weakly taken, which favours the
// always-taken loop-closing branch of generated kernels warming up quickly.
func New(cfg Config) (*Predictor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	size := 1 << cfg.TableBits
	fresh := make([]uint8, size)
	for i := range fresh {
		fresh[i] = 2 // weakly taken
	}
	return &Predictor{
		cfg:     cfg,
		table:   slices.Clone(fresh),
		fresh:   fresh,
		mask:    uint64(size - 1),
		histMsk: (1 << uint(cfg.HistoryBits)) - 1,
	}, nil
}

// Stats returns a copy of the statistics.
func (p *Predictor) Stats() Stats { return p.stats }

// Reset clears the predictor state and statistics.
func (p *Predictor) Reset() {
	copy(p.table, p.fresh)
	p.history = 0
	p.stats = Stats{}
}

// index computes the table index for a branch PC.
func (p *Predictor) index(pc uint64) uint64 {
	idx := pc >> 2
	if p.cfg.Kind == GShare {
		idx ^= p.history & p.histMsk
	}
	return idx & p.mask
}

// Predict predicts the direction of the branch at pc, updates the predictor
// with the actual outcome, and reports whether the prediction was wrong.
func (p *Predictor) Predict(pc uint64, taken bool) bool {
	idx := p.index(pc)
	predictTaken := p.table[idx] >= 2
	mispredicted := predictTaken != taken

	// Update the counter.
	if taken {
		if p.table[idx] < 3 {
			p.table[idx]++
		}
	} else if p.table[idx] > 0 {
		p.table[idx]--
	}
	// Update global history.
	if p.cfg.Kind == GShare {
		p.history = (p.history << 1) & p.histMsk
		if taken {
			p.history |= 1
		}
	}

	p.stats.Branches++
	if mispredicted {
		p.stats.Mispredicts++
	}
	return mispredicted
}

package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"

	"repro/internal/astopo"
	"repro/internal/trace"
)

// Bundle is a deployable set of fitted models: one temporal model per
// botnet family and one spatial model per target network. Train once with
// TrainBundle, persist with Save, and reload with LoadBundle (the
// cloud-security-service workflow the paper motivates in §VI-B: providers
// train on their vantage and ship predictions or models to customers).
type Bundle struct {
	Temporal map[string]*Temporal   `json:"temporal"`
	Spatial  map[astopo.AS]*Spatial `json:"spatial"`
}

// BundleConfig gates and configures bundle training.
type BundleConfig struct {
	// MinFamilyAttacks / MinASAttacks skip families and networks with too
	// little history (defaults 12).
	MinFamilyAttacks int
	MinASAttacks     int
	// MaxSeriesLen caps the per-network series fed to the NAR grid search
	// (default 400).
	MaxSeriesLen int
	Temporal     TemporalConfig
	Spatial      SpatialConfig
}

func (c BundleConfig) withDefaults() BundleConfig {
	if c.MinFamilyAttacks < 3 {
		c.MinFamilyAttacks = 12
	}
	if c.MinASAttacks < 3 {
		c.MinASAttacks = 12
	}
	if c.MaxSeriesLen < 1 {
		c.MaxSeriesLen = 400
	}
	return c
}

// TrainBundle fits temporal models for every family and spatial models for
// every target network with sufficient history.
func TrainBundle(ds *trace.Dataset, cfg BundleConfig) (*Bundle, error) {
	if ds == nil || ds.Len() == 0 {
		return nil, errors.New("core: empty dataset")
	}
	cfg = cfg.withDefaults()
	b := &Bundle{
		Temporal: make(map[string]*Temporal),
		Spatial:  make(map[astopo.AS]*Spatial),
	}
	for _, fam := range ds.Families() {
		attacks := ds.ByFamily(fam)
		if len(attacks) < cfg.MinFamilyAttacks {
			continue
		}
		m, err := FitTemporal(fam, attacks, cfg.Temporal)
		if err != nil {
			return nil, fmt.Errorf("core: bundle family %s: %w", fam, err)
		}
		b.Temporal[fam] = m
	}
	byAS := ds.ByTargetAS()
	ases := make([]astopo.AS, 0, len(byAS))
	for as := range byAS {
		ases = append(ases, as)
	}
	sort.Slice(ases, func(i, j int) bool { return ases[i] < ases[j] })
	for _, as := range ases {
		attacks := byAS[as]
		if len(attacks) < cfg.MinASAttacks {
			continue
		}
		if len(attacks) > cfg.MaxSeriesLen {
			attacks = attacks[len(attacks)-cfg.MaxSeriesLen:]
		}
		m, err := FitSpatial(as, attacks, cfg.Spatial, SpatialTopology{}, SpatialStart{})
		if err != nil {
			return nil, fmt.Errorf("core: bundle AS%d: %w", as, err)
		}
		b.Spatial[as] = m
	}
	if len(b.Temporal) == 0 {
		return nil, errors.New("core: no family had enough attacks to train")
	}
	return b, nil
}

// Save writes the bundle as JSON.
func (b *Bundle) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("core: save bundle: %w", err)
	}
	defer f.Close()
	if err := json.NewEncoder(f).Encode(b); err != nil {
		return fmt.Errorf("core: save bundle: %w", err)
	}
	return f.Sync()
}

// LoadBundle reads a bundle written by Save.
func LoadBundle(path string) (*Bundle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: load bundle: %w", err)
	}
	defer f.Close()
	var b Bundle
	if err := json.NewDecoder(f).Decode(&b); err != nil {
		return nil, fmt.Errorf("core: load bundle: %w", err)
	}
	if len(b.Temporal) == 0 && len(b.Spatial) == 0 {
		return nil, errors.New("core: load bundle: empty bundle")
	}
	return &b, nil
}

package core

import (
	"encoding/json"
	"fmt"
	"io"

	"inputtune/internal/choice"
	"inputtune/internal/ml/bayes"
	"inputtune/internal/ml/dtree"
	"inputtune/internal/stats"
)

// This file implements model persistence: a trained Model (landmarks +
// production classifier) serialises to JSON so that training — hours at the
// paper's scale — happens once and deployment loads the artifact. The
// Program itself is code, not data; LoadModel re-binds the stored artifact
// to the caller's Program and validates the configuration shapes against
// its Space.

// candidateJSON is the serialised form of a production classifier.
type candidateJSON struct {
	Name    string            `json:"name"`
	Kind    string            `json:"kind"`
	Static  []int             `json:"static,omitempty"`
	Apriori int               `json:"apriori,omitempty"`
	Tree    *dtree.Tree       `json:"tree,omitempty"`
	Inc     *bayes.Classifier `json:"incremental,omitempty"`
}

// modelJSON is the on-disk form of a Model.
type modelJSON struct {
	Version    int              `json:"version"`
	Benchmark  string           `json:"benchmark"`
	Landmarks  []*choice.Config `json:"landmarks"`
	Production candidateJSON    `json:"production"`
	Means      []float64        `json:"scaler_means"`
	Stds       []float64        `json:"scaler_stds"`
	// Summary is the training-distribution fingerprint for drift
	// detection. omitempty keeps artifacts saved before this section
	// loadable (a nil summary just disables drift detection).
	Summary *Summary `json:"summary,omitempty"`
	Report  Report   `json:"report"`
}

// SaveModel writes the deployable parts of the model as JSON.
func SaveModel(m *Model, w io.Writer) error {
	cj := candidateJSON{
		Name:   m.Production.Name,
		Kind:   m.Production.Kind.String(),
		Static: m.Production.Static,
	}
	switch m.Production.Kind {
	case MaxAPriori:
		cj.Apriori = m.Production.apriori
	case SubsetTree:
		cj.Tree = m.Production.tree
	case Incremental:
		cj.Inc = m.Production.inc
	default:
		return fmt.Errorf("core: cannot serialise classifier kind %v", m.Production.Kind)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(modelJSON{
		Version:    1,
		Benchmark:  m.Program.Name(),
		Landmarks:  m.Landmarks,
		Production: cj,
		Means:      m.Scaler.Means,
		Stds:       m.Scaler.Stds,
		Summary:    m.Summary,
		Report:     m.Report,
	})
}

// LoadModel reads a model saved by SaveModel and binds it to prog, which
// must be the same benchmark (by name) with an identical configuration
// space. The loaded model deploys (Classify/Run) but does not retain the
// training dataset or Level-1 clusters, so it cannot drive the one-level
// baseline.
func LoadModel(prog Program, r io.Reader) (*Model, error) {
	var mj modelJSON
	if err := json.NewDecoder(r).Decode(&mj); err != nil {
		return nil, fmt.Errorf("core: decoding model: %w", err)
	}
	if mj.Version != 1 {
		return nil, fmt.Errorf("core: unsupported model version %d", mj.Version)
	}
	if mj.Benchmark != prog.Name() {
		return nil, fmt.Errorf("core: model is for %q, program is %q", mj.Benchmark, prog.Name())
	}
	space := prog.Space()
	for i, lm := range mj.Landmarks {
		if lm == nil {
			return nil, fmt.Errorf("core: landmark %d missing", i)
		}
		if err := space.Validate(lm); err != nil {
			return nil, fmt.Errorf("core: landmark %d invalid for program space: %w", i, err)
		}
	}
	cand := &Candidate{Name: mj.Production.Name, Static: mj.Production.Static}
	switch mj.Production.Kind {
	case "max-a-priori":
		cand.Kind = MaxAPriori
		cand.apriori = mj.Production.Apriori
		if cand.apriori < 0 || cand.apriori >= len(mj.Landmarks) {
			return nil, fmt.Errorf("core: a-priori landmark %d out of range", cand.apriori)
		}
	case "subset-tree":
		cand.Kind = SubsetTree
		if mj.Production.Tree == nil {
			return nil, fmt.Errorf("core: subset-tree classifier missing tree payload")
		}
		cand.tree = mj.Production.Tree
	case "incremental":
		cand.Kind = Incremental
		if mj.Production.Inc == nil {
			return nil, fmt.Errorf("core: incremental classifier missing payload")
		}
		cand.inc = mj.Production.Inc
	default:
		return nil, fmt.Errorf("core: unknown classifier kind %q", mj.Production.Kind)
	}
	nf := prog.Features().NumFeatures()
	if err := validatePayload(cand, len(mj.Landmarks), nf); err != nil {
		return nil, err
	}
	if len(mj.Means) != nf || len(mj.Stds) != nf {
		return nil, fmt.Errorf("core: scaler has %d means and %d stds, program has %d features",
			len(mj.Means), len(mj.Stds), nf)
	}
	if err := mj.Summary.Validate(len(mj.Means)); err != nil {
		return nil, err
	}
	scaler := stats.NewZScorer(mj.Means, mj.Stds)
	return &Model{
		Program:    prog,
		Landmarks:  mj.Landmarks,
		Production: cand,
		Scaler:     scaler,
		Summary:    mj.Summary,
		Report:     mj.Report,
	}, nil
}

// validatePayload checks a decoded production classifier against the
// model it serves: every label it can return must index one of the
// model's landmarks, and every feature it reads or extracts must index one
// of the program's numFeatures features. A classifier that passes
// classifies any input without indexing out of range.
func validatePayload(c *Candidate, landmarks, numFeatures int) error {
	for _, f := range c.Static {
		if f < 0 || f >= numFeatures {
			return fmt.Errorf("core: static feature %d out of range [0, %d)", f, numFeatures)
		}
	}
	var err error
	switch c.Kind {
	case SubsetTree:
		err = c.tree.Validate(landmarks, numFeatures)
	case Incremental:
		err = c.inc.Validate(landmarks, numFeatures)
	}
	if err != nil {
		return fmt.Errorf("core: %s classifier invalid for the model: %w", c.Kind, err)
	}
	return nil
}

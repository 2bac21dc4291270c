// Package mlr implements the multinomial-logistic-regression outage
// classifiers the paper compares against ([4], [14], "MLR" in §V). The
// classifier learns one softmax class per training scenario — normal
// operation plus each valid single-line outage — from complete-data
// samples. Missing test entries are mean-imputed, reproducing the peers'
// "assume complete data / ignore missing entries" behaviour whose
// fragility the paper demonstrates.
package mlr

import (
	"fmt"
	"math"
	"math/rand"

	"pmuoutage/internal/dataset"
	"pmuoutage/internal/grid"
)

// Config tunes training.
type Config struct {
	// Epochs of full-batch gradient descent (default 300).
	Epochs int
	// NormalMargin is the confidence rule for declaring an outage: the
	// winning outage class must beat the normal class's probability by
	// this factor, otherwise the sample is classified normal (default 1.5).
	// Weak-line outages genuinely overlap the normal region at PMU noise
	// levels, and an uncalibrated argmax flips normal samples into those
	// classes.
	NormalMargin float64
}

// Training constants. The features are the angle channel, as the
// subspace detector's default, so the comparison is apples-to-apples;
// they are standardised, so large gradient steps are stable. seed
// initialises the weights.
const (
	channel      = dataset.Angle
	learningRate = 2.0
	l2           = 1e-3 // L2 regularisation strength
	seed         = 1
)

func (c Config) withDefaults() Config {
	if c.Epochs <= 0 {
		c.Epochs = 300
	}
	if c.NormalMargin <= 0 {
		c.NormalMargin = 1.5
	}
	return c
}

// Classifier is a trained softmax regression model over outage classes.
type Classifier struct {
	cfg     Config
	classes []dataset.Scenario // class index -> scenario (index 0 = normal)
	w       [][]float64        // [class][feature+1] weights, last = bias
	mean    []float64          // feature standardisation
	std     []float64
	dim     int
}

// Train fits the classifier on the generated data: class 0 is normal
// operation, classes 1..E are the valid single-line outages.
func Train(d *dataset.Data, cfg Config) (*Classifier, error) {
	cfg = cfg.withDefaults()
	if d.Normal.T() == 0 {
		return nil, fmt.Errorf("mlr: no normal training samples")
	}
	dim := channel.Dim(d.G.N())

	var xs [][]float64
	var ys []int
	classes := []dataset.Scenario{nil}
	for _, s := range d.Normal.Samples {
		xs = append(xs, s.Vector(channel))
		ys = append(ys, 0)
	}
	for _, e := range d.ValidLines {
		cls := len(classes)
		classes = append(classes, dataset.Scenario{e})
		for _, s := range d.Outages[e].Samples {
			xs = append(xs, s.Vector(channel))
			ys = append(ys, cls)
		}
	}

	// Standardise features: softmax training on raw phasor scales is
	// badly conditioned (angles span ~0.5 rad, magnitudes ~0.02 p.u.).
	mean := make([]float64, dim)
	std := make([]float64, dim)
	for _, x := range xs {
		for j, v := range x {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(len(xs))
	}
	for _, x := range xs {
		for j, v := range x {
			dlt := v - mean[j]
			std[j] += dlt * dlt
		}
	}
	for j := range std {
		std[j] = math.Sqrt(std[j] / float64(len(xs)))
		if std[j] < 1e-12 {
			std[j] = 1
		}
	}
	norm := func(x []float64) []float64 {
		out := make([]float64, dim)
		for j, v := range x {
			out[j] = (v - mean[j]) / std[j]
		}
		return out
	}
	for i, x := range xs {
		xs[i] = norm(x)
	}

	k := len(classes)
	rng := rand.New(rand.NewSource(seed))
	w := make([][]float64, k)
	for c := range w {
		w[c] = make([]float64, dim+1)
		for j := range w[c] {
			w[c][j] = 0.01 * rng.NormFloat64()
		}
	}

	// Full-batch gradient descent on the softmax cross-entropy.
	probs := make([]float64, k)
	grad := make([][]float64, k)
	for c := range grad {
		grad[c] = make([]float64, dim+1)
	}
	nInv := 1 / float64(len(xs))
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for c := range grad {
			for j := range grad[c] {
				grad[c][j] = 0
			}
		}
		for i, x := range xs {
			softmax(w, x, probs)
			for c := 0; c < k; c++ {
				delta := probs[c]
				if c == ys[i] {
					delta--
				}
				if delta == 0 { //gridlint:ignore floatcmp exact-zero gradient fast path; a near-zero delta still contributes correctly below
					continue
				}
				gc := grad[c]
				for j, v := range x {
					gc[j] += delta * v
				}
				gc[dim] += delta
			}
		}
		for c := 0; c < k; c++ {
			wc := w[c]
			gc := grad[c]
			for j := 0; j <= dim; j++ {
				g := gc[j]*nInv + l2*wc[j]
				wc[j] -= learningRate * g
			}
		}
	}
	return &Classifier{cfg: cfg, classes: classes, w: w, mean: mean, std: std, dim: dim}, nil
}

// softmax fills out with class probabilities for the standardised x.
func softmax(w [][]float64, x []float64, out []float64) {
	dim := len(x)
	mx := math.Inf(-1)
	for c, wc := range w {
		s := wc[dim] // bias
		for j, v := range x {
			s += wc[j] * v
		}
		out[c] = s
		if s > mx {
			mx = s
		}
	}
	var sum float64
	for c := range out {
		out[c] = math.Exp(out[c] - mx)
		sum += out[c]
	}
	for c := range out {
		out[c] /= sum
	}
}

// Classify returns the predicted outage set for a sample. Missing
// entries are imputed with the training means — the "ignore missing
// data" strategy of the peer methods.
func (c *Classifier) Classify(s dataset.Sample) []grid.Line {
	cls, _ := c.ClassifyWithProb(s)
	return cls
}

// ClassifyWithProb also returns the winning class probability.
func (c *Classifier) ClassifyWithProb(s dataset.Sample) ([]grid.Line, float64) {
	x := s.Vector(channel)
	m := s.MaskFor(channel)
	z := make([]float64, c.dim)
	for j := 0; j < c.dim; j++ {
		v := x[j]
		if m[j] {
			// Mean imputation: standardised value 0.
			z[j] = 0
			continue
		}
		z[j] = (v - c.mean[j]) / c.std[j]
	}
	// Sized by the class table, which softmax fills one entry per weight
	// row: a trained model has len(w) == len(classes), and sizing by the
	// table makes the later classes[best] lookup panic-free by
	// construction.
	probs := make([]float64, len(c.classes))
	softmax(c.w, z, probs)
	best, bestP := 0, probs[0]
	for cls, p := range probs {
		if p > bestP {
			best, bestP = cls, p
		}
	}
	// Confidence rule: an outage call must clearly beat the normal class.
	if best != 0 && bestP < c.cfg.NormalMargin*probs[0] {
		return nil, probs[0]
	}
	sc := c.classes[best]
	if sc.Normal() {
		return nil, bestP
	}
	out := make([]grid.Line, len(sc))
	copy(out, sc)
	return out, bestP
}

package pmunet

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"pmuoutage/internal/par"
)

// Reliability describes the per-device availability of the measurement
// chain, following Eq. (14): each of the L PMUs and its PMU→PDC link
// fail independently; PDC→CC links are considered reliable.
//
// The per-device working probability is q = r_PMU * r_PMU→PDC, and the
// system-wide reliability level is r = q^L.
type Reliability struct {
	RPMU  float64 // availability of one PMU device
	RLink float64 // availability of its PMU→PDC link
}

// Validate checks both probabilities are in (0, 1].
func (r Reliability) Validate() error {
	if r.RPMU <= 0 || r.RPMU > 1 || r.RLink <= 0 || r.RLink > 1 {
		return fmt.Errorf("pmunet: reliability values must be in (0,1]: %+v", r)
	}
	return nil
}

// DeviceAvailability returns q = r_PMU * r_PMU→PDC.
func (r Reliability) DeviceAvailability() float64 { return r.RPMU * r.RLink }

// SystemReliability returns r = q^L per Eq. (14) for L devices. It is
// the round-trip oracle of FromSystemReliability in
// TestFromSystemReliabilityRoundTrip.
func (r Reliability) SystemReliability(l int) float64 {
	return math.Pow(r.DeviceAvailability(), float64(l))
}

// FromSystemReliability inverts Eq. (14): given a target system-wide
// level r for L devices it returns the per-device availability q = r^(1/L)
// packed into a Reliability with the link folded into RPMU.
func FromSystemReliability(r float64, l int) (Reliability, error) {
	// The negated form rejects NaN too (NaN fails every comparison).
	if !(r > 0 && r <= 1) || l <= 0 {
		return Reliability{}, fmt.Errorf("pmunet: invalid system reliability %v for L=%d", r, l)
	}
	q := math.Pow(r, 1/float64(l))
	return Reliability{RPMU: q, RLink: 1}, nil
}

// SampleMask draws one missing-data pattern from the Eq. (15)
// distribution: each device is independently down with probability 1-q.
// This is the Monte Carlo view of the 2^L pattern sum in Eq. (13).
func (nw *Network) SampleMask(rel Reliability, rng *rand.Rand) Mask {
	q := rel.DeviceAvailability()
	m := NoneMissing(nw.G.N())
	for i := range m {
		if rng.Float64() >= q {
			m[i] = true
		}
	}
	return m
}

// MCStats is the outcome of a sharded Monte Carlo estimate of the
// Eq. (13)–(15) pattern distribution.
type MCStats struct {
	// Trials is the number of patterns drawn.
	Trials int
	// MeanMissing estimates E[#missing devices] under Eq. (15).
	MeanMissing float64
	// AnyMissing estimates P[at least one device missing] — the
	// complement of the system-wide reliability r of Eq. (14).
	AnyMissing float64
}

// mcShards fixes the shard count of the Monte Carlo estimators. The
// trial space is split into this many independently-seeded shards
// regardless of worker count, and shard results are reduced in shard
// order — so the estimate is byte-identical whether the shards run on
// one worker or sixteen.
const mcShards = 64

// splitSeed derives the RNG seed of one shard from the sweep seed with a
// splitmix64-style finalizer, so neighbouring shards get uncorrelated
// streams without sharing any state.
func splitSeed(seed int64, shard int) int64 {
	z := uint64(seed) + uint64(shard+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// ReliabilityMonteCarlo estimates the Eq. (13) pattern-sum statistics by
// drawing trials patterns from the Eq. (15) device distribution. Trials
// are split into fixed shards with per-shard RNGs derived from seed, and
// the shards fan out over workers (0 = GOMAXPROCS); the result is
// deterministic in (rel, trials, seed) and independent of workers.
func (nw *Network) ReliabilityMonteCarlo(ctx context.Context, rel Reliability, trials int, seed int64, workers int) (MCStats, error) {
	if err := rel.Validate(); err != nil {
		return MCStats{}, err
	}
	if trials <= 0 {
		return MCStats{}, fmt.Errorf("pmunet: Monte Carlo needs positive trials, got %d", trials)
	}
	shards := mcShards
	if shards > trials {
		shards = trials
	}
	type shardSum struct {
		missing float64
		any     int
	}
	sums, err := par.Map(ctx, workers, shards, func(_ context.Context, s int) (shardSum, error) {
		lo := s * trials / shards
		hi := (s + 1) * trials / shards
		rng := rand.New(rand.NewSource(splitSeed(seed, s)))
		var sum shardSum
		for t := lo; t < hi; t++ {
			m := nw.SampleMask(rel, rng)
			c := m.MissingCount()
			sum.missing += float64(c)
			if c > 0 {
				sum.any++
			}
		}
		return sum, nil
	})
	if err != nil {
		return MCStats{}, err
	}
	out := MCStats{Trials: trials}
	for _, s := range sums { // fixed shard order: deterministic float sum
		out.MeanMissing += s.missing
		out.AnyMissing += float64(s.any)
	}
	out.MeanMissing /= float64(trials)
	out.AnyMissing /= float64(trials)
	return out, nil
}

// EnumeratePatterns calls fn for every one of the 2^L missing-data
// patterns together with its Eq. (15) probability. It is only feasible
// for small L (the IEEE 14-bus system already needs 2^14 = 16384 calls);
// larger systems should use SampleMask Monte Carlo instead. fn returning
// false stops the enumeration early.
func (nw *Network) EnumeratePatterns(rel Reliability, fn func(m Mask, p float64) bool) error {
	l := nw.G.N()
	if l > 22 {
		return fmt.Errorf("pmunet: refusing to enumerate 2^%d patterns; use SampleMask", l)
	}
	q := rel.DeviceAvailability()
	m := NoneMissing(l)
	var rec func(i int, p float64) bool
	rec = func(i int, p float64) bool {
		if i == l {
			return fn(m.Clone(), p)
		}
		m[i] = false
		if !rec(i+1, p*q) {
			return false
		}
		m[i] = true
		defer func() { m[i] = false }()
		return rec(i+1, p*(1-q))
	}
	rec(0, 1)
	return nil
}

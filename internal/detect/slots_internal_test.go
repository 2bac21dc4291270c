package detect

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"pmuoutage/internal/dataset"
	"pmuoutage/internal/pmunet"
)

// TestPlanSlotsMatchFreshPlans holds each cluster's plan for a mask,
// from a slot or not, to a plan built for that mask alone, and the
// gate's S⁰ factor to a restriction to the available features, bit for
// bit. Each mask set runs twice on one detector: cold, while the slots
// fill, and warm, when a cluster whose group has one dark bus and a
// gate with one dark bus must be served from the slot itself. On
// ieee14 the masks are every mask with up to two dark buses and each
// cluster dark; on ieee118, 2,000 draws at system reliability 0.9.
func TestPlanSlotsMatchFreshPlans(t *testing.T) {
	t.Run("ieee14", func(t *testing.T) {
		det, _ := trainFixture(t, 1)
		n := det.g.N()
		masks := []pmunet.Mask{pmunet.NoneMissing(n)}
		for a := 0; a < n; a++ {
			for b := a; b < n; b++ {
				m := pmunet.NoneMissing(n)
				m[a], m[b] = true, true
				masks = append(masks, m)
			}
		}
		for c := 0; c < det.nw.NumClusters(); c++ {
			masks = append(masks, det.nw.ClusterMask(c))
		}
		checkSlots(t, det, masks)
	})
	t.Run("ieee118", func(t *testing.T) {
		d, nw := gridFixture(t, "ieee118")
		det, err := TrainContext(context.Background(), d, nw, Config{})
		if err != nil {
			t.Fatal(err)
		}
		rel, err := pmunet.FromSystemReliability(0.9, d.G.N())
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		masks := make([]pmunet.Mask, 2000)
		for i := range masks {
			masks[i] = nw.SampleMask(rel, rng)
		}
		checkSlots(t, det, masks)
	})
}

// checkSlots runs the masks over det cold, then warm, holding every
// cluster's plan and the gate's factor to fresh ones. A plan is
// immutable, so one returned again for the same group is not compared
// again: most masks leave most groups whole and get the complete plan.
func checkSlots(t *testing.T, det *Detector, masks []pmunet.Mask) {
	t.Helper()
	type planGroup struct {
		p     *clusterPlan
		group string
	}
	compared := map[planGroup]bool{}
	for _, warm := range []bool{false, true} {
		for _, m := range masks {
			for c := range det.plans {
				got, err := det.maskedPlan(c, m)
				if err != nil {
					t.Fatal(err)
				}
				group := det.group(c, m)
				if k := (planGroup{got, fmt.Sprint(group)}); !compared[k] {
					want, err := det.plan(c, group)
					if err != nil {
						t.Fatal(err)
					}
					if !sameBits(reflect.ValueOf(got), reflect.ValueOf(want)) {
						t.Fatalf("warm=%v dark %v cluster %d: plan differs from a fresh one", warm, darkBuses(m), c)
					}
					compared[k] = true
				}
				if j, ok := oneDark(det.groupBuses[c], m); warm && ok && det.planSlots[c] != nil && got != det.planSlots[c][j].Load() {
					t.Fatalf("dark %v cluster %d: warm plan with one dark group bus not served from its slot", darkBuses(m), c)
				}
			}
			if dark := m.MissingCount(); dark == 0 || dark == len(m) {
				continue // the gate reads no factor for these
			}
			feat := (&dataset.Sample{Vm: make([]float64, len(m)), Mask: m}).MaskFor(det.cfg.Channel)
			got, err := det.gateNormal(feat, feat.MissingCount(), slices.Index(feat, true))
			if err != nil {
				t.Fatal(err)
			}
			want, err := det.normalSub.Restrict(feat.Available())
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(reflect.ValueOf(got), reflect.ValueOf(want)) {
				t.Fatalf("warm=%v dark %v: gate factor differs from a fresh restriction", warm, darkBuses(m))
			}
			if b := slices.Index(m, true); warm && m.MissingCount() == 1 && got != det.gateSlots[b].Load() {
				t.Fatalf("dark %v: warm gate factor not served from bus %d's slot", darkBuses(m), b)
			}
		}
	}
}

// oneDark returns the position in buses of the one bus m marks dark,
// and whether exactly one is.
func oneDark(buses []int, m pmunet.Mask) (int, bool) {
	j, dark := 0, 0
	for k, b := range buses {
		if m[b] {
			j, dark = k, dark+1
		}
	}
	return j, dark == 1
}

// darkBuses lists the buses m marks dark.
func darkBuses(m pmunet.Mask) []int {
	var out []int
	for i, dark := range m {
		if dark {
			out = append(out, i)
		}
	}
	return out
}

// sameBits reports whether a and b hold the same values, following
// pointers, slices and struct fields, exported or not, and comparing
// floats by their bits.
func sameBits(a, b reflect.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Int:
		return a.Int() == b.Int()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	}
	panic(fmt.Sprintf("sameBits: unhandled kind %v", a.Kind()))
}

// TestTwoBusGroupIsNotSlotted decodes a model whose first cluster's
// group has two buses. With one of them dark the group falls back to
// every available bus, which depends on the whole mask, so the cluster
// has no slots: two masks with the same dark group bus and a different
// dark bus elsewhere must get different plans, each a fresh one's.
func TestTwoBusGroupIsNotSlotted(t *testing.T) {
	trained, _ := trainFixture(t, 1)
	m, err := trained.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	a, b := m.Clusters[0][0], m.Clusters[0][1]
	m.Groups = slices.Clone(m.Groups)
	m.Groups[0] = Group{InCluster: []int{a, b}}
	det, err := FromModel(m)
	if err != nil {
		t.Fatal(err)
	}
	if det.planSlots[0] != nil {
		t.Fatal("a cluster whose group less one bus falls back has plan slots")
	}
	var others []int
	for i := 0; i < det.g.N() && len(others) < 2; i++ {
		if i != a && i != b {
			others = append(others, i)
		}
	}
	var plans []*clusterPlan
	for _, warm := range []bool{false, true} {
		for _, other := range others {
			mask := pmunet.NoneMissing(det.g.N())
			mask[a], mask[other] = true, true
			got, err := det.maskedPlan(0, mask)
			if err != nil {
				t.Fatal(err)
			}
			want, err := det.plan(0, det.group(0, mask))
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(reflect.ValueOf(got), reflect.ValueOf(want)) {
				t.Fatalf("warm=%v: buses %d and %d dark: plan differs from a fresh one", warm, a, other)
			}
			plans = append(plans, got)
		}
	}
	if slices.Equal(plans[0].group, plans[1].group) {
		t.Fatalf("both masks got group %v", plans[0].group)
	}
}

// TestSlotsUnderConcurrentDetect runs every valid line's first outage
// sample under each single-bus mask and each pair of adjacent buses
// dark, from a cold detector in 8 goroutines that share the masks, and
// requires each goroutine's results to equal a sequential run's. Under
// -race it checks that the slots fill without a data race.
func TestSlotsUnderConcurrentDetect(t *testing.T) {
	seq, d := trainFixture(t, 1)
	cold, _ := trainFixture(t, 1)
	n := seq.g.N()
	var masks []pmunet.Mask
	for b := 0; b < n; b++ {
		m := pmunet.NoneMissing(n)
		m[b] = true
		masks = append(masks, m)
		if b+1 < n {
			m = m.Clone()
			m[b+1] = true
			masks = append(masks, m)
		}
	}
	var samples []dataset.Sample
	for _, e := range d.ValidLines {
		for _, m := range masks {
			samples = append(samples, d.Outages[e].Samples[0].WithMask(m))
		}
	}
	want := make([]*Result, len(samples))
	for i, s := range samples {
		r, err := seq.Detect(s)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	const workers = 8
	got := make([][]*Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w] = make([]*Result, len(samples))
			// Each goroutine starts at its own offset, so several race to
			// build the same slots.
			for k := range samples {
				i := (k + w*len(samples)/workers) % len(samples)
				if got[w][i], errs[w] = cold.Detect(samples[i]); errs[w] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	for w := range workers {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		if !reflect.DeepEqual(got[w], want) {
			t.Fatalf("goroutine %d: concurrent results differ from sequential ones", w)
		}
	}
}

// TestGroupHasNoDarkBus checks Eq. (10)'s promise on ieee14: under each
// of the 2^14 masks that leaves two or more buses, every cluster gets a
// detection group of at least two features, none of them at a dark bus.
func TestGroupHasNoDarkBus(t *testing.T) {
	det, _ := trainFixture(t, 1)
	n := det.g.N()
	m := pmunet.NoneMissing(n)
	for bits := 0; bits < 1<<n; bits++ {
		for i := range m {
			m[i] = bits>>i&1 == 1
		}
		if n-m.MissingCount() < 2 {
			continue
		}
		for c := range det.groups {
			group := det.group(c, m)
			if len(group) < 2 {
				t.Fatalf("mask %v: cluster %d has group %v", m, c, group)
			}
			for _, f := range group {
				if m[f%n] {
					t.Fatalf("mask %v: cluster %d's group %v holds dark bus %d", m, c, group, f%n)
				}
			}
		}
	}
}

package experiments

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

// quickCfg keeps experiment tests fast: smallest system, DC power flow,
// short windows.
func quickCfg() Config {
	return Config{
		Systems:    []string{"ieee14"},
		TrainSteps: 20,
		TestSteps:  4,
		Seed:       5,
		UseDC:      true,
	}
}

// TestDefaultSystemsArePaperSet: with no Systems a run covers the four
// IEEE systems the field comment and the -systems flag name, not the
// scale grids every registered case would add.
func TestDefaultSystemsArePaperSet(t *testing.T) {
	want := []string{"ieee14", "ieee30", "ieee57", "ieee118"}
	if got := (Config{}).withDefaults().Systems; !reflect.DeepEqual(got, want) {
		t.Fatalf("default Systems = %v, want %v", got, want)
	}
}

func TestRowString(t *testing.T) {
	r := Row{Figure: "fig5", System: "ieee14", Method: "subspace", IA: 0.9, FA: 0.1, N: 3}
	s := r.String()
	for _, want := range []string{"fig5", "ieee14", "subspace", "IA=0.9", "FA=0.1"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Row.String() = %q missing %q", s, want)
		}
	}
}

func TestFig5Shape(t *testing.T) {
	rows, err := Fig5(context.Background(), quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	var sub, mlrIA float64
	for _, r := range rows {
		if r.N == 0 {
			t.Fatalf("row %v has no samples", r)
		}
		switch r.Method {
		case "subspace":
			sub = r.IA
		case "mlr":
			mlrIA = r.IA
		}
	}
	// Paper shape: comparable performance with complete data. Both
	// should be clearly better than chance.
	if sub < 0.6 || mlrIA < 0.6 {
		t.Errorf("complete data IA too low: subspace %.3f, mlr %.3f", sub, mlrIA)
	}
}

func TestFig7Shape(t *testing.T) {
	rows, err := Fig7(context.Background(), quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	var sub, base Row
	for _, r := range rows {
		if r.Method == "subspace" {
			sub = r
		} else {
			base = r
		}
	}
	// Paper shape: the subspace method clearly beats MLR when outage
	// data are missing.
	if sub.IA <= base.IA {
		t.Errorf("subspace IA %.3f must exceed MLR IA %.3f with missing outage data", sub.IA, base.IA)
	}
}

func TestFig8Shape(t *testing.T) {
	rows, err := Fig8(context.Background(), quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	var sub, base Row
	for _, r := range rows {
		if r.Method == "subspace" {
			sub = r
		} else {
			base = r
		}
	}
	// Paper shape: the subspace method rarely confuses missing data for
	// outages; MLR's false-alarm rate is much higher.
	if sub.FA > 0.2 {
		t.Errorf("subspace FA on missing-normal = %.3f, want near 0", sub.FA)
	}
	if base.FA < sub.FA {
		t.Errorf("MLR FA %.3f should exceed subspace FA %.3f", base.FA, sub.FA)
	}
}

func TestFig9Shape(t *testing.T) {
	rows, err := Fig9(context.Background(), quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	var sub, base Row
	for _, r := range rows {
		if r.Method == "subspace" {
			sub = r
		} else {
			base = r
		}
	}
	if sub.IA < base.IA {
		t.Errorf("subspace IA %.3f should be at least MLR IA %.3f under uncorrelated missing data", sub.IA, base.IA)
	}
}

func TestFig4Shape(t *testing.T) {
	cfg := quickCfg()
	rows, err := Fig4(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5 mix points", len(rows))
	}
	// Paper shape: the proposed group (x=1) beats the naive group (x=0).
	var at0, at1 Row
	for _, r := range rows {
		if r.X == 0 {
			at0 = r
		}
		if r.X == 1 {
			at1 = r
		}
	}
	if at1.IA < at0.IA {
		t.Errorf("proposed group IA %.3f should be >= naive group IA %.3f", at1.IA, at0.IA)
	}
}

func TestFig10Shape(t *testing.T) {
	cfg := quickCfg()
	rows, err := Fig10(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5 reliability levels", len(rows))
	}
	for _, r := range rows {
		if r.FA > 0.5 {
			t.Errorf("effective FA at r=%.2f is %.3f — should stay moderate", r.X, r.FA)
		}
	}
}

func TestAblationRuns(t *testing.T) {
	rows, err := Ablation(context.Background(), quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6 variants", len(rows))
	}
	names := map[string]bool{}
	for _, r := range rows {
		names[r.Method] = true
		if r.N == 0 {
			t.Errorf("variant %s evaluated nothing", r.Method)
		}
	}
	for _, want := range []string{"residual", "regressor", "unscaled", "magnitude", "stacked", "mvee"} {
		if !names[want] {
			t.Errorf("missing variant %s", want)
		}
	}
}

func TestUnknownSystemFails(t *testing.T) {
	cfg := quickCfg()
	cfg.Systems = []string{"nope"}
	if _, err := Fig5(context.Background(), cfg); err == nil {
		t.Fatal("expected error for unknown system")
	}
}

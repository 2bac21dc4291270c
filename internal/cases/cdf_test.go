package cases

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"pmuoutage/internal/grid"
)

func TestCDFRoundTripAllCases(t *testing.T) {
	for _, g := range paperGrids(t) {
		var buf bytes.Buffer
		if err := WriteCDF(&buf, g); err != nil {
			t.Fatalf("%s: write: %v", g.Name, err)
		}
		back, err := ParseCDF(&buf)
		if err != nil {
			t.Fatalf("%s: parse: %v", g.Name, err)
		}
		if back.Name != g.Name {
			t.Errorf("%s: name = %q", g.Name, back.Name)
		}
		if back.N() != g.N() || back.E() != g.E() {
			t.Fatalf("%s: %d buses / %d lines, want %d / %d",
				g.Name, back.N(), back.E(), g.N(), g.E())
		}
		if back.BaseMVA != g.BaseMVA {
			t.Errorf("%s: base MVA %v, want %v", g.Name, back.BaseMVA, g.BaseMVA)
		}
		for i := range g.Buses {
			a, b := &g.Buses[i], &back.Buses[i]
			if a.ID != b.ID || a.Type != b.Type {
				t.Fatalf("%s bus %d: id/type mismatch", g.Name, i)
			}
			// Power values survive at the format's centi-MW resolution.
			if math.Abs(a.Pd-b.Pd) > 1e-4 || math.Abs(a.Qd-b.Qd) > 1e-4 {
				t.Errorf("%s bus %d: load %v/%v vs %v/%v", g.Name, i, a.Pd, a.Qd, b.Pd, b.Qd)
			}
			if math.Abs(a.Vm-b.Vm) > 1e-4 || math.Abs(a.Va-b.Va) > 1e-4 {
				t.Errorf("%s bus %d: voltage mismatch", g.Name, i)
			}
			if math.Abs(a.Bs-b.Bs) > 1e-5 {
				t.Errorf("%s bus %d: shunt mismatch %v vs %v", g.Name, i, a.Bs, b.Bs)
			}
		}
		for e := range g.Branches {
			a, b := &g.Branches[e], &back.Branches[e]
			if a.From != b.From || a.To != b.To {
				t.Fatalf("%s branch %d: endpoints mismatch", g.Name, e)
			}
			if math.Abs(a.R-b.R) > 1e-6 || math.Abs(a.X-b.X) > 1e-6 || math.Abs(a.B-b.B) > 1e-6 {
				t.Errorf("%s branch %d: impedance mismatch", g.Name, e)
			}
			if math.Abs(a.Tap-b.Tap) > 1e-4 {
				t.Errorf("%s branch %d: tap %v vs %v", g.Name, e, a.Tap, b.Tap)
			}
		}
		if err := back.Validate(); err != nil {
			t.Errorf("%s: round-tripped grid invalid: %v", g.Name, err)
		}
	}
}

// archiveSnippet is a hand-written fragment following the published
// archive formatting (3-bus toy): exercises the parser against input we
// did not generate ourselves.
const archiveSnippet = ` 08/20/93 UW ARCHIVE           100.0  1993 W IEEE 3 Bus Test Case
BUS DATA FOLLOWS                            3 ITEMS
   1 Bus 1     HV  1  1  3 1.060    0.0      0.0      0.0    232.4   -16.9     0.0  1.060     0.0     0.0   0.0    0.0        0
   2 Bus 2     HV  1  1  2 1.045   -4.98    21.7     12.7     40.0    42.4     0.0  1.045    50.0   -40.0   0.0    0.0        0
   3 Bus 3     HV  1  1  0 1.010  -12.72    94.2     19.0      0.0     0.0     0.0  0.0       0.0     0.0   0.0    0.0        0
-999
BRANCH DATA FOLLOWS                         3 ITEMS
   1    2  1  1 1 0  0.01938    0.05917    0.0528     0     0     0    0 0  0.0    0.0
   1    3  1  1 1 0  0.05403    0.22304    0.0492     0     0     0    0 0  0.978  0.0
   2    3  1  1 1 0  0.04699    0.19797    0.0438     0     0     0    0 0  0.0    0.0
-999
END OF DATA
`

func TestParseArchiveStyleSnippet(t *testing.T) {
	g, err := ParseCDF(strings.NewReader(archiveSnippet))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.E() != 3 {
		t.Fatalf("parsed %d buses / %d branches", g.N(), g.E())
	}
	if g.BaseMVA != 100 {
		t.Fatalf("base MVA = %v", g.BaseMVA)
	}
	if !strings.Contains(g.Name, "IEEE 3 Bus") {
		t.Fatalf("name = %q", g.Name)
	}
	if g.Buses[0].Type != grid.Slack {
		t.Fatalf("bus 1 type = %v, want slack", g.Buses[0].Type)
	}
	if math.Abs(g.Buses[1].Pd-0.217) > 1e-9 {
		t.Fatalf("bus 2 Pd = %v, want 0.217 p.u.", g.Buses[1].Pd)
	}
	if math.Abs(g.Branches[0].X-0.05917) > 1e-9 {
		t.Fatalf("branch 1 X = %v", g.Branches[0].X)
	}
	if math.Abs(g.Branches[1].Tap-0.978) > 1e-9 {
		t.Fatalf("branch 2 tap = %v", g.Branches[1].Tap)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// busCard builds a minimal fixed-column bus record with the given bus
// number and CDF type code at the spec columns.
func busCard(num, typ int) string {
	c := []byte(strings.Repeat(" ", 80))
	place := func(lo, hi int, val string) {
		copy(c[hi-len(val):hi], val)
	}
	place(0, 4, "1")
	_ = num
	place(24, 26, fmt.Sprintf("%d", typ))
	place(27, 33, "1.0")
	place(33, 40, "0.0")
	place(40, 49, "0.0")
	place(49, 59, "0.0")
	place(59, 67, "0.0")
	place(67, 75, "0.0")
	return string(c)
}

func TestParseCDFErrors(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"no buses":     "title\nEND OF DATA\n",
		"bad bus":      "title\nBUS DATA FOLLOWS\nabcd\n-999\nEND OF DATA\n",
		"unknown type": "title\nBUS DATA FOLLOWS\n" + busCard(1, 9) + "\n-999\nEND OF DATA\n",
		"orphan branch": "title\nBUS DATA FOLLOWS\n" +
			"   1 B           1  1  3 1.0     0.0     0.0      0.0       0.0     0.0\n-999\n" +
			"BRANCH DATA FOLLOWS\n   1    9  1  1 1 0  0.1        0.2        0.0\n-999\nEND OF DATA\n",
		"dup bus": "title\nBUS DATA FOLLOWS\n" +
			"   1 B           1  1  3 1.0     0.0     0.0      0.0       0.0     0.0\n" +
			"   1 B           1  1  0 1.0     0.0     0.0      0.0       0.0     0.0\n-999\nEND OF DATA\n",
	}
	for name, input := range cases {
		if _, err := ParseCDF(strings.NewReader(input)); err == nil {
			t.Errorf("%s: expected parse error", name)
		} else {
			t.Logf("%s: %v", name, err)
		}
	}
}

package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randDense(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

func TestNewDenseDims(t *testing.T) {
	m := NewDense(3, 4)
	if r, c := m.Dims(); r != 3 || c != 4 {
		t.Fatalf("Dims = (%d,%d), want (3,4)", r, c)
	}
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("Rows/Cols = %d/%d, want 3/4", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("fresh matrix not zero at (%d,%d)", i, j)
			}
		}
	}
}

func TestNewDenseDataBacking(t *testing.T) {
	d := []float64{1, 2, 3, 4, 5, 6}
	m := NewDenseData(2, 3, d)
	if m.At(1, 2) != 6 {
		t.Fatalf("At(1,2) = %v, want 6", m.At(1, 2))
	}
	d[0] = 42 // backing slice is shared by contract
	if m.At(0, 0) != 42 {
		t.Fatalf("NewDenseData must not copy; At(0,0) = %v", m.At(0, 0))
	}
}

func TestNewDenseDataPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched data length")
		}
	}()
	NewDenseData(2, 3, []float64{1, 2})
}

func TestSetAtAddRoundTrip(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(0, 1, 3.5)
	m.Add(0, 1, 1.5)
	if got := m.At(0, 1); got != 5 {
		t.Fatalf("At(0,1) = %v, want 5", got)
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	m := NewDense(2, 2)
	for _, idx := range [][2]int{{-1, 0}, {0, -1}, {2, 0}, {0, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for index %v", idx)
				}
			}()
			m.At(idx[0], idx[1])
		}()
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("Identity(4)[%d,%d] = %v, want %v", i, j, id.At(i, j), want)
			}
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randDense(rng, 3, 3)
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(8)
		c := 1 + rng.Intn(8)
		m := randDense(rng, r, c)
		return m.T().T().Equalf(m, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randDense(rng, 4, 6)
	if !Identity(4).Mul(m).Equalf(m, 1e-15) {
		t.Error("I*m != m")
	}
	if !m.Mul(Identity(6)).Equalf(m, 1e-15) {
		t.Error("m*I != m")
	}
}

func TestMulKnown(t *testing.T) {
	a := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := NewDenseData(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got := a.Mul(b)
	want := NewDenseData(2, 2, []float64{58, 64, 139, 154})
	if !got.Equalf(want, 0) {
		t.Fatalf("Mul = %v, want %v", got, want)
	}
}

func TestMulAssociativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randDense(rng, 3, 4)
		b := randDense(rng, 4, 5)
		c := randDense(rng, 5, 2)
		left := a.Mul(b).Mul(c)
		right := a.Mul(b.Mul(c))
		return left.Equalf(right, 1e-10)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulVecMatchesMul(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randDense(rng, 4, 3)
		x := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		xm := NewDense(3, 1)
		xm.SetCol(0, x)
		got := a.MulVec(x)
		want := a.Mul(xm)
		for i, v := range got {
			if math.Abs(v-want.At(i, 0)) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTransposeMulProperty(t *testing.T) {
	// (A*B)^T == B^T * A^T
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randDense(rng, 3, 5)
		b := randDense(rng, 5, 4)
		return a.Mul(b).T().Equalf(b.T().Mul(a.T()), 1e-10)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddSubScale(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randDense(rng, 3, 3)
	b := randDense(rng, 3, 3)
	if !a.AddMat(b).SubMat(b).Equalf(a, 1e-12) {
		t.Error("(a+b)-b != a")
	}
	if !a.Scale(2).SubMat(a).Equalf(a, 1e-12) {
		t.Error("2a - a != a")
	}
	if a.Scale(0).FrobeniusNorm() != 0 {
		t.Error("0*a != 0")
	}
}

func TestRowColRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := randDense(rng, 4, 5)
	r2 := m.Row(2)
	c3 := m.Col(3)
	if r2[3] != m.At(2, 3) || c3[2] != m.At(2, 3) {
		t.Fatal("Row/Col disagree with At")
	}
	m3 := NewDense(4, 5)
	for j := 0; j < 5; j++ {
		m3.SetCol(j, m.Col(j))
	}
	if !m3.Equalf(m, 0) {
		t.Fatal("SetCol(Col) round trip failed")
	}
}

func TestRowIsCopy(t *testing.T) {
	m := NewDenseData(1, 2, []float64{1, 2})
	r := m.Row(0)
	r[0] = 99
	if m.At(0, 0) == 99 {
		t.Fatal("Row must return a copy")
	}
}

func TestRawRowIsView(t *testing.T) {
	m := NewDenseData(1, 2, []float64{1, 2})
	r := m.RawRow(0)
	r[0] = 99
	if m.At(0, 0) != 99 {
		t.Fatal("RawRow must return a view")
	}
}

func TestSelectRowsCols(t *testing.T) {
	m := NewDenseData(3, 3, []float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	})
	sr := m.SelectRows([]int{2, 0})
	want := NewDenseData(2, 3, []float64{7, 8, 9, 1, 2, 3})
	if !sr.Equalf(want, 0) {
		t.Fatalf("SelectRows = %v, want %v", sr, want)
	}
	sc := m.SelectCols([]int{1})
	wantC := NewDenseData(3, 1, []float64{2, 5, 8})
	if !sc.Equalf(wantC, 0) {
		t.Fatalf("SelectCols = %v, want %v", sc, wantC)
	}
}

func TestFrobeniusNormKnown(t *testing.T) {
	m := NewDenseData(2, 2, []float64{3, 0, 0, 4})
	if got := m.FrobeniusNorm(); math.Abs(got-5) > 1e-15 {
		t.Fatalf("FrobeniusNorm = %v, want 5", got)
	}
}

func TestEqualfShapeMismatch(t *testing.T) {
	if NewDense(2, 2).Equalf(NewDense(2, 3), 1) {
		t.Fatal("matrices of different shapes must not be Equalf")
	}
}

func TestStringSmoke(t *testing.T) {
	m := NewDenseData(2, 2, []float64{1, 2, 3, 4})
	if s := m.String(); s == "" {
		t.Fatal("String returned empty")
	}
}

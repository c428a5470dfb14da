package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianOdd(t *testing.T) {
	m, err := Median([]float64{3, 1, 2})
	if err != nil || !almost(m, 2) {
		t.Errorf("Median = %v, %v", m, err)
	}
}

func TestMedianEven(t *testing.T) {
	m, err := Median([]float64{4, 1, 3, 2})
	if err != nil || !almost(m, 2.5) {
		t.Errorf("Median = %v, %v", m, err)
	}
}

func TestMedianSingle(t *testing.T) {
	m, err := Median([]float64{7.5})
	if err != nil || !almost(m, 7.5) {
		t.Errorf("Median = %v, %v", m, err)
	}
}

func TestEmptyErrors(t *testing.T) {
	if _, err := Median(nil); err != ErrEmpty {
		t.Error("Median(nil): want ErrEmpty")
	}
	if _, err := Mean(nil); err != ErrEmpty {
		t.Error("Mean(nil): want ErrEmpty")
	}
	if _, err := Percentile(nil, 50); err != ErrEmpty {
		t.Error("Percentile(nil): want ErrEmpty")
	}
}

func TestPercentileEndpoints(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	if p, _ := Percentile(xs, 0); !almost(p, 10) {
		t.Errorf("p0 = %v", p)
	}
	if p, _ := Percentile(xs, 100); !almost(p, 40) {
		t.Errorf("p100 = %v", p)
	}
	// out-of-range p values clamp
	if p, _ := Percentile(xs, -5); !almost(p, 10) {
		t.Errorf("p-5 = %v", p)
	}
	if p, _ := Percentile(xs, 120); !almost(p, 40) {
		t.Errorf("p120 = %v", p)
	}
}

func TestPercentileInterpolation(t *testing.T) {
	xs := []float64{0, 10}
	if p, _ := Percentile(xs, 25); !almost(p, 2.5) {
		t.Errorf("p25 = %v, want 2.5", p)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Percentile(xs, 50); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestMeanMinMaxSum(t *testing.T) {
	xs := []float64{2, 4, 6}
	if m, _ := Mean(xs); !almost(m, 4) {
		t.Errorf("Mean = %v", m)
	}
}

// Property: median lies between min and max.
func TestQuickMedianBounded(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		k := int(n)%50 + 1
		xs := make([]float64, k)
		for i := range xs {
			xs[i] = r.NormFloat64() * 100
		}
		med, _ := Median(xs)
		lo, hi := slices.Min(xs), slices.Max(xs)
		return med >= lo-1e-9 && med <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: percentiles are monotone in p.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(seed int64, n uint8, a, b uint8) bool {
		r := rand.New(rand.NewSource(seed))
		k := int(n)%40 + 2
		xs := make([]float64, k)
		for i := range xs {
			xs[i] = r.Float64() * 1000
		}
		pa, pb := float64(a%101), float64(b%101)
		if pa > pb {
			pa, pb = pb, pa
		}
		va, _ := Percentile(xs, pa)
		vb, _ := Percentile(xs, pb)
		return va <= vb+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

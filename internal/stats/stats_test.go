package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]int{4, 1, 3, 2, 5})
	if s.Count != 5 || s.Min != 1 || s.Max != 5 {
		t.Errorf("count/min/max: %+v", s)
	}
	if s.Mean != 3 {
		t.Errorf("mean = %v", s.Mean)
	}
	if s.Median != 3 {
		t.Errorf("median = %v", s.Median)
	}
	if math.Abs(s.StdDev-math.Sqrt(2)) > 1e-12 {
		t.Errorf("stddev = %v", s.StdDev)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s.Count != 0 || s.Mean != 0 {
		t.Errorf("empty summary: %+v", s)
	}
}

func TestSummarizeSingleton(t *testing.T) {
	s := Summarize([]int{7})
	if s.Mean != 7 || s.Median != 7 || s.P90 != 7 || s.StdDev != 0 {
		t.Errorf("singleton: %+v", s)
	}
}

func TestPercentile(t *testing.T) {
	sorted := []int{10, 20, 30, 40}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 10}, {1, 40}, {0.5, 25}, {1.0 / 3.0, 20},
	}
	for _, tt := range tests {
		if got := Percentile(sorted, tt.p); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	for _, bad := range []func(){
		func() { Percentile(nil, 0.5) },
		func() { Percentile(sorted, -0.1) },
		func() { Percentile(sorted, 1.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			bad()
		}()
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]int{1, 1, 2, 5})
	if c.Len() != 4 {
		t.Fatalf("Len = %d", c.Len())
	}
	tests := []struct {
		x    int
		want float64
	}{
		{0, 0}, {1, 0.5}, {2, 0.75}, {3, 0.75}, {4, 0.75}, {5, 1}, {10, 1},
	}
	for _, tt := range tests {
		if got := c.At(tt.x); got != tt.want {
			t.Errorf("At(%d) = %v, want %v", tt.x, got, tt.want)
		}
	}
	pts := c.Points(0, 5)
	if len(pts) != 6 {
		t.Fatalf("Points = %d", len(pts))
	}
	if pts[0].Y != 0 || pts[5].Y != 1 {
		t.Errorf("endpoint values: %v %v", pts[0], pts[5])
	}
	// Empty CDF reads as zero everywhere.
	if NewCDF(nil).At(100) != 0 {
		t.Error("empty CDF not zero")
	}
}

// Property: a CDF is monotone, right-continuous on integers, and hits 1 at
// the sample maximum.
func TestQuickCDFMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		samples := make([]int, n)
		maxV := 0
		for i := range samples {
			samples[i] = rng.Intn(50)
			if samples[i] > maxV {
				maxV = samples[i]
			}
		}
		c := NewCDF(samples)
		prev := 0.0
		for x := -1; x <= 51; x++ {
			y := c.At(x)
			if y < prev || y < 0 || y > 1 {
				return false
			}
			prev = y
		}
		return c.At(maxV) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFormatTable(t *testing.T) {
	series := []Series{
		{Label: "a", Points: []Point{{1, 0.5}, {2, 0.75}}},
		{Label: "b", Points: []Point{{1, 0.25}}},
	}
	out := FormatTable(series, "x")
	if !strings.Contains(out, "a") || !strings.Contains(out, "b") {
		t.Errorf("labels missing:\n%s", out)
	}
	if !strings.Contains(out, "0.7500") {
		t.Errorf("values missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 { // header + 2 rows
		t.Errorf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[2], "-") {
		t.Errorf("missing-point marker absent: %q", lines[2])
	}
	if FormatTable(nil, "x") != "" {
		t.Error("empty series renders non-empty")
	}
}

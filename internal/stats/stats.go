// Package stats provides the small statistical toolkit the experiment
// harness needs: empirical CDFs (Figure 15(b) is a CDF plot), summary
// statistics, and series formatting.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary holds the usual summary statistics of an integer sample.
type Summary struct {
	Count  int
	Min    int
	Max    int
	Mean   float64
	Median float64
	P90    float64
	P99    float64
	StdDev float64
}

// Summarize computes summary statistics; the zero Summary for empty input.
func Summarize(samples []int) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	sorted := make([]int, len(samples))
	copy(sorted, samples)
	sort.Ints(sorted)
	s := Summary{
		Count: len(sorted),
		Min:   sorted[0],
		Max:   sorted[len(sorted)-1],
	}
	total := 0.0
	for _, v := range sorted {
		total += float64(v)
	}
	s.Mean = total / float64(len(sorted))
	var sq float64
	for _, v := range sorted {
		d := float64(v) - s.Mean
		sq += d * d
	}
	s.StdDev = math.Sqrt(sq / float64(len(sorted)))
	s.Median = Percentile(sorted, 0.5)
	s.P90 = Percentile(sorted, 0.9)
	s.P99 = Percentile(sorted, 0.99)
	return s
}

// Percentile returns the p-quantile (0<=p<=1) of a sorted sample using
// linear interpolation. It panics on an empty sample or p outside [0,1].
func Percentile(sorted []int, p float64) float64 {
	if len(sorted) == 0 {
		panic("stats: percentile of empty sample")
	}
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("stats: percentile %v out of [0,1]", p))
	}
	if len(sorted) == 1 {
		return float64(sorted[0])
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return float64(sorted[lo])
	}
	frac := pos - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[hi])*frac
}

// CDF is an empirical cumulative distribution over integer values.
type CDF struct {
	sorted []int
}

// NewCDF builds the CDF of the sample (which is copied).
func NewCDF(samples []int) CDF {
	sorted := make([]int, len(samples))
	copy(sorted, samples)
	sort.Ints(sorted)
	return CDF{sorted: sorted}
}

// Len returns the sample size.
func (c CDF) Len() int { return len(c.sorted) }

// At returns P[X <= x].
func (c CDF) At(x int) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// First index with value > x.
	i := sort.SearchInts(c.sorted, x+1)
	return float64(i) / float64(len(c.sorted))
}

// Points evaluates the CDF at every integer in [lo, hi], producing the
// series a plot like Figure 15(b) needs.
func (c CDF) Points(lo, hi int) []Point {
	out := make([]Point, 0, hi-lo+1)
	for x := lo; x <= hi; x++ {
		out = append(out, Point{X: float64(x), Y: c.At(x)})
	}
	return out
}

// Point is one (x,y) pair of a series.
type Point struct {
	X, Y float64
}

// Series is a named sequence of points, the unit the experiment tools
// print.
type Series struct {
	Label  string
	Points []Point
}

// FormatTable renders series as an aligned text table with a shared X
// column, suitable for terminal output or gnuplot.
func FormatTable(series []Series, xName string) string {
	if len(series) == 0 {
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s", xName)
	for _, s := range series {
		fmt.Fprintf(&sb, " %24s", s.Label)
	}
	sb.WriteByte('\n')
	n := 0
	for _, s := range series {
		if len(s.Points) > n {
			n = len(s.Points)
		}
	}
	for i := 0; i < n; i++ {
		var x float64
		for _, s := range series {
			if i < len(s.Points) {
				x = s.Points[i].X
				break
			}
		}
		fmt.Fprintf(&sb, "%-12g", x)
		for _, s := range series {
			if i < len(s.Points) {
				fmt.Fprintf(&sb, " %24.4f", s.Points[i].Y)
			} else {
				fmt.Fprintf(&sb, " %24s", "-")
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

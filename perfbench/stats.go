package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Dist is a sample of durations in milliseconds.
type Dist []float64

// AddDur appends one duration.
func (d *Dist) AddDur(v time.Duration) { *d = append(*d, float64(v)/float64(time.Millisecond)) }

func (d Dist) sorted() []float64 {
	s := append([]float64(nil), d...)
	sort.Float64s(s)
	return s
}

// Quantile returns the nearest-rank q-quantile (0 < q <= 1); 0 for an
// empty sample.
func (d Dist) Quantile(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := d.sorted()
	i := int(math.Ceil(q*float64(len(s))-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// Len is the sample count.
func (d Dist) Len() int { return len(d) }

// Median is the nearest-rank median.
func (d Dist) Median() float64 { return d.Quantile(0.5) }

// tailBeyond is how many samples must lie beyond a reported tail.
const tailBeyond = 10

// tailPercentiles are the percentiles a tail is reported at.
var tailPercentiles = []float64{99.999, 99.99, 99.95, 99.9, 99.5, 99, 95, 90, 75, 50}

// Tail returns the highest of tailPercentiles that has at least ten
// samples beyond it, with that percentile. A sample too small for any
// reports its maximum, labelled as percentile 100.
func (d Dist) Tail() (value, pct float64) {
	n := len(d)
	if n == 0 {
		return 0, 0
	}
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= tailBeyond {
			return d.Quantile(p / 100), p
		}
	}
	return d.Max(), 100
}

// SplitTail splits a time-ordered sample into parts contiguous pieces,
// takes Tail of each and returns their median, with the percentile the
// pieces were reported at. A burst of host or server stalls that fills
// one piece moves a pooled tail; it moves this one only if it fills
// most pieces.
func (d Dist) SplitTail(parts int) (value, pct float64) {
	tails := make([]float64, parts)
	for i := range tails {
		tails[i], pct = d[i*len(d)/parts : (i+1)*len(d)/parts].Tail()
	}
	return medianFloat(tails), pct
}

// SplitMedian is SplitTail for the median: the median of the pieces'
// medians.
func (d Dist) SplitMedian(parts int) float64 {
	meds := make([]float64, parts)
	for i := range meds {
		meds[i] = d[i*len(d)/parts : (i+1)*len(d)/parts].Median()
	}
	return medianFloat(meds)
}

// Max returns the largest sample.
func (d Dist) Max() float64 {
	m := 0.0
	for _, v := range d {
		if v > m {
			m = v
		}
	}
	return m
}

// Describe renders "p50 x ms, p<t> y ms (n=N)" for logs.
func (d Dist) Describe() string {
	t, p := d.Tail()
	return fmt.Sprintf("p50 %.3f ms, p%.1f %.3f ms (n=%d)", d.Median(), p, t, len(d))
}

// medianFloat is the median of a float slice, the mean of the middle
// two for an even count (0 when empty).
func medianFloat(v []float64) float64 {
	n := len(v)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

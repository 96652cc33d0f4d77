package estimator

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs; it errors on empty input.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("estimator: mean of empty sample")
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// Median returns the middle value (average of the two middles for even n).
func Median(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("estimator: median of empty sample")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2], nil
	}
	return (s[n/2-1] + s[n/2]) / 2, nil
}

// Regression is a fitted simple linear model y = Intercept + Slope·x.
type Regression struct {
	Slope     float64
	Intercept float64
	R2        float64 // coefficient of determination
}

// Predict evaluates the model at x.
func (r Regression) Predict(x float64) float64 {
	return r.Intercept + r.Slope*x
}

// LinearRegression fits y = a + b·x by least squares. It errors when
// fewer than two points are given or x has zero variance (vertical fit).
func LinearRegression(xs, ys []float64) (Regression, error) {
	if len(xs) != len(ys) {
		return Regression{}, fmt.Errorf("estimator: regression length mismatch %d vs %d", len(xs), len(ys))
	}
	n := len(xs)
	if n < 2 {
		return Regression{}, fmt.Errorf("estimator: regression needs >=2 points, got %d", n)
	}
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Regression{}, fmt.Errorf("estimator: regression covariate has zero variance")
	}
	slope := sxy / sxx
	intercept := my - slope*mx
	r2 := 0.0
	if syy > 0 {
		r2 = (sxy * sxy) / (sxx * syy)
	}
	return Regression{Slope: slope, Intercept: intercept, R2: r2}, nil
}

// MeanAbsolutePercentageError computes the paper's accuracy metric:
// mean over cases of (actual - estimated)/actual × 100, using the
// absolute value of each term. The paper's §7 "Percentage Error" formula
// is signed per case; errors of both signs would cancel in a plain mean,
// so (like the paper's reported 13.53% figure, which is only meaningful
// as a magnitude) we aggregate magnitudes.
func MeanAbsolutePercentageError(actual, estimated []float64) (float64, error) {
	if len(actual) != len(estimated) {
		return 0, fmt.Errorf("estimator: MAPE length mismatch %d vs %d", len(actual), len(estimated))
	}
	if len(actual) == 0 {
		return 0, fmt.Errorf("estimator: MAPE of empty sample")
	}
	sum := 0.0
	for i := range actual {
		if actual[i] == 0 {
			return 0, fmt.Errorf("estimator: MAPE undefined for zero actual at %d", i)
		}
		sum += math.Abs((actual[i] - estimated[i]) / actual[i] * 100)
	}
	return sum / float64(len(actual)), nil
}

package estimator

import (
	"fmt"
)

// Template names the attributes that must match for two tasks to count as
// "similar". Narrow templates give precise but sparse matches; wide ones
// always match but mix unlike tasks. The estimator searches its templates
// in order and uses the first that yields enough matches — the greedy
// variant of Smith/Taylor/Foster template search.
type Template []Attribute

// Attribute is one matchable task characteristic.
type Attribute string

// Matchable attributes.
const (
	AttrQueue     Attribute = "queue"
	AttrPartition Attribute = "partition"
	AttrNodes     Attribute = "nodes"
	AttrJobType   Attribute = "job_type"
	AttrAccount   Attribute = "account"
	AttrLogin     Attribute = "login"
)

// DefaultTemplates is the search order used by the paper-scale
// experiments: most specific (queue+partition+nodes) down to queue alone,
// then the universal template.
var DefaultTemplates = []Template{
	{AttrQueue, AttrPartition, AttrNodes},
	{AttrQueue, AttrNodes},
	{AttrQueue, AttrPartition},
	{AttrQueue},
	{},
}

// matches reports whether candidate agrees with target on every template
// attribute.
func (t Template) matches(target, candidate *TaskRecord) bool {
	for _, a := range t {
		switch a {
		case AttrQueue:
			if target.Queue != candidate.Queue {
				return false
			}
		case AttrPartition:
			if target.Partition != candidate.Partition {
				return false
			}
		case AttrNodes:
			if target.Nodes != candidate.Nodes {
				return false
			}
		case AttrJobType:
			if target.JobType != candidate.JobType {
				return false
			}
		case AttrAccount:
			if target.Account != candidate.Account {
				return false
			}
		case AttrLogin:
			if target.Login != candidate.Login {
				return false
			}
		}
	}
	return true
}

// Statistic selects the estimate computed over the similar set.
type Statistic int

// Statistics.
const (
	// StatAuto uses linear regression on requested CPU-hours when the fit
	// is usable, otherwise the mean — the paper computes both.
	StatAuto Statistic = iota
	StatMean
	StatRegression
	StatLast // most recent similar task's runtime
	StatMedian
)

func (s Statistic) String() string {
	switch s {
	case StatAuto:
		return "auto"
	case StatMean:
		return "mean"
	case StatRegression:
		return "regression"
	case StatLast:
		return "last"
	case StatMedian:
		return "median"
	}
	return fmt.Sprintf("statistic(%d)", int(s))
}

// RuntimeEstimate is a prediction with its provenance.
type RuntimeEstimate struct {
	Seconds   float64
	Similar   int       // size of the similar set used
	Statistic Statistic // statistic actually applied (never StatAuto)
}

// RuntimeEstimator predicts task runtimes from a site's history. A
// template's similar set must hold minSimilar runs before the search stops
// at it, and StatAuto uses the regression only at an R² of minR2 or more.
type RuntimeEstimator struct {
	History   *History
	Templates []Template
	Statistic Statistic
}

const (
	// minSimilar is the smallest similar-set size a template may return
	// before the search falls through to the next template.
	minSimilar = 3
	// minR2 gates StatAuto's use of the regression.
	minR2 = 0.25
)

// NewRuntimeEstimator creates an estimator over hist with default
// templates and the auto statistic.
func NewRuntimeEstimator(hist *History) *RuntimeEstimator {
	return &RuntimeEstimator{
		History:   hist,
		Templates: DefaultTemplates,
		Statistic: StatAuto,
	}
}

// Estimate predicts the runtime of target. Only successful runs enter the
// similar set (failed tasks' runtimes do not reflect the work).
func (e *RuntimeEstimator) Estimate(target TaskRecord) (RuntimeEstimate, error) {
	if e.History == nil || e.History.Len() == 0 {
		return RuntimeEstimate{}, fmt.Errorf("estimator: empty history")
	}
	templates := e.Templates
	if len(templates) == 0 {
		templates = DefaultTemplates
	}
	// The last non-empty similar set, as its two columns.
	var runtimes, reqs []float64
	for _, tpl := range templates {
		rt, rq := e.History.similarRuns(tpl, &target)
		if len(rt) == 0 {
			continue
		}
		runtimes, reqs = rt, rq
		if len(rt) >= minSimilar {
			break
		}
	}
	if runtimes == nil {
		return RuntimeEstimate{}, fmt.Errorf("estimator: no similar tasks in history")
	}
	return e.estimateFrom(target, runtimes, reqs)
}

func (e *RuntimeEstimator) estimateFrom(target TaskRecord, runtimes, reqs []float64) (RuntimeEstimate, error) {
	est := RuntimeEstimate{Similar: len(runtimes)}

	applyMean := func() error {
		m, err := Mean(runtimes)
		if err != nil {
			return err
		}
		est.Seconds, est.Statistic = m, StatMean
		return nil
	}

	switch e.Statistic {
	case StatMean:
		if err := applyMean(); err != nil {
			return est, err
		}
	case StatMedian:
		m, err := Median(runtimes)
		if err != nil {
			return est, err
		}
		est.Seconds, est.Statistic = m, StatMedian
	case StatLast:
		est.Seconds, est.Statistic = runtimes[len(runtimes)-1], StatLast
	case StatRegression:
		reg, err := LinearRegression(reqs, runtimes)
		if err != nil {
			return est, fmt.Errorf("estimator: regression unavailable: %w", err)
		}
		est.Seconds, est.Statistic = reg.Predict(target.ReqHours), StatRegression
	case StatAuto:
		reg, err := LinearRegression(reqs, runtimes)
		if err == nil && reg.R2 >= minR2 {
			pred := reg.Predict(target.ReqHours)
			if pred > 0 {
				est.Seconds, est.Statistic = pred, StatRegression
				break
			}
		}
		if err := applyMean(); err != nil {
			return est, err
		}
	default:
		return est, fmt.Errorf("estimator: unknown statistic %v", e.Statistic)
	}
	if est.Seconds < 0 {
		est.Seconds = 0
	}
	return est, nil
}

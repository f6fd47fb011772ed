package forecast

import (
	"fmt"
	"math"
	"sort"

	"perseus/internal/grid"
)

// Model forecasts one per-interval series (carbon or price) from its
// revealed history. Models are deliberately simple and deterministic:
// the point of the package is measuring how planning degrades under
// forecast error and recovers under re-planning, not squeezing the last
// percent out of the predictor.
type Model interface {
	Name() string

	// Predict forecasts h values following the history (one value per
	// signal interval, oldest first, most recent last) given the
	// series' seasonal period in intervals. It returns the point
	// forecasts and the per-lead half-width of the residual-quantile
	// band at the given level — the empirical level-quantile of the
	// model's own in-sample absolute residuals, widened with lead where
	// the model's error accumulates.
	Predict(history []float64, period, h int, level float64) (point, spread []float64)
}

// ModelByName maps a model name to a zero-configured instance.
func ModelByName(name string) (Model, error) {
	switch name {
	case "persistence":
		return &Persistence{}, nil
	case "seasonal":
		return &SeasonalNaive{}, nil
	case "smoothed":
		return &Smoothed{}, nil
	}
	return nil, fmt.Errorf("forecast: unknown model %q (want persistence, seasonal, or smoothed)", name)
}

// Persistence forecasts every future value as the last observed one —
// the canonical no-skill baseline every other model must beat. Its
// bands widen with the square root of the lead, scaled by the quantile
// of observed step-to-step changes.
type Persistence struct{}

// Name implements Model.
func (*Persistence) Name() string { return "persistence" }

// Predict implements Model.
func (*Persistence) Predict(history []float64, period, h int, level float64) (point, spread []float64) {
	point = make([]float64, h)
	spread = make([]float64, h)
	if len(history) == 0 {
		return point, spread
	}
	last := history[len(history)-1]
	var res []float64
	for t := 1; t < len(history); t++ {
		res = append(res, math.Abs(history[t]-history[t-1]))
	}
	base := quantile(res, level)
	for k := 0; k < h; k++ {
		point[k] = last
		spread[k] = base * math.Sqrt(float64(k+1))
	}
	return point, spread
}

// SeasonalNaive forecasts each future value as the observed value one
// seasonal period earlier — the diurnal decomposition of a 24 h grid
// trace. Its residuals (this hour vs. the same hour yesterday) do not
// accumulate with lead, so its bands stay flat. With less than one
// period of history it degrades to persistence.
type SeasonalNaive struct{}

// Name implements Model.
func (*SeasonalNaive) Name() string { return "seasonal" }

// Predict implements Model.
func (*SeasonalNaive) Predict(history []float64, period, h int, level float64) (point, spread []float64) {
	n := len(history)
	if period <= 0 || n < period {
		return (&Persistence{}).Predict(history, period, h, level)
	}
	point = make([]float64, h)
	spread = make([]float64, h)
	var res []float64
	for t := period; t < n; t++ {
		res = append(res, math.Abs(history[t]-history[t-period]))
	}
	base := quantile(res, level)
	for k := 0; k < h; k++ {
		point[k] = history[n-period+((k)%period)]
		spread[k] = base
	}
	return point, spread
}

// Smoothed is the exponential-smoothing / AR(1) hybrid: it removes the
// seasonal component (per-phase means of the revealed history), tracks
// the current deseasonalized anomaly with an exponentially smoothed
// level (smoothing factor ½), and decays that anomaly into the future
// at an AR(1) coefficient fitted from the history's lag-1
// autocorrelation (clamped to [0, 0.95]). Bands grow with the
// accumulated AR innovation variance, scaled by the quantile of
// one-step residuals.
type Smoothed struct{}

// Name implements Model.
func (*Smoothed) Name() string { return "smoothed" }

// Predict implements Model.
func (*Smoothed) Predict(history []float64, period, h int, level float64) (point, spread []float64) {
	n := len(history)
	point = make([]float64, h)
	spread = make([]float64, h)
	if n == 0 {
		return point, spread
	}
	const alpha = 0.5

	// Seasonal component: per-phase means over whole periods (falling
	// back to the overall mean with less than one period of history).
	season := make([]float64, max(period, 1))
	if period > 0 && n >= period {
		count := make([]int, period)
		for t := 0; t < n; t++ {
			season[t%period] += history[t]
			count[t%period]++
		}
		for p := range season {
			if count[p] > 0 {
				season[p] /= float64(count[p])
			}
		}
	} else {
		var mean float64
		for _, v := range history {
			mean += v
		}
		mean /= float64(n)
		for p := range season {
			season[p] = mean
		}
	}
	at := func(t int) float64 { return season[t%len(season)] }

	// Deseasonalized anomalies, their smoothed level, and the fitted
	// AR(1) coefficient.
	anom := make([]float64, n)
	for t := 0; t < n; t++ {
		anom[t] = history[t] - at(t)
	}
	var num, den float64
	for t := 1; t < n; t++ {
		num += anom[t] * anom[t-1]
		den += anom[t-1] * anom[t-1]
	}
	phi := 0.8
	if den > 0 {
		phi = math.Min(0.95, math.Max(0, num/den))
	}
	level_ := anom[0]
	var res []float64
	for t := 1; t < n; t++ {
		pred := phi * level_
		res = append(res, math.Abs(anom[t]-pred))
		level_ = alpha*anom[t] + (1-alpha)*level_
	}
	base := quantile(res, level)

	acc := 0.0
	decay := phi
	for k := 0; k < h; k++ {
		point[k] = at(n+k) + decay*level_
		acc += decay * decay
		spread[k] = base * math.Sqrt(1+acc)
		decay *= phi
	}
	return point, spread
}

// quantile returns the empirical level-quantile of the values by
// nearest rank (0 for an empty set).
func quantile(vals []float64, level float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	i := int(math.Ceil(level*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// FromHistory is the model-driven provider: it reveals the truth trace
// up to the issue time (the operator meters the current interval's
// actual rates) and forecasts the remainder with a Model, one series
// each for carbon and price, with residual-quantile bands. The truth's
// own interval grid, repeated cyclically, is the forecast step grid,
// and the truth's intervals-per-cycle is the seasonal period.
type FromHistory struct {
	// Truth is the actual trace the revealed history is read from.
	Truth *grid.Signal

	// Model forecasts both series; nil means SeasonalNaive.
	Model Model

	// HorizonS is the forecast coverage in seconds; 0 means the truth
	// horizon.
	HorizonS float64

	// Level is the band quantile level; 0 means 0.9.
	Level float64
}

// Name implements Provider.
func (p *FromHistory) Name() string {
	if p.Model == nil {
		return "seasonal"
	}
	return p.Model.Name()
}

// At implements Provider.
func (p *FromHistory) At(t float64) (*Forecast, error) {
	if err := checkIssueTime(p.Truth, t); err != nil {
		return nil, err
	}
	model := p.Model
	if model == nil {
		model = &SeasonalNaive{}
	}
	level := p.Level
	if level == 0 {
		level = 0.9
	}
	if !(level > 0.5) || level >= 1 {
		return nil, fmt.Errorf("forecast: band level must be in (0.5, 1), got %v", level)
	}
	steps := ExtendCyclic(p.Truth, horizonOr(p.HorizonS, p.Truth))
	k := revealedSteps(steps, t)
	histC := make([]float64, k)
	histP := make([]float64, k)
	for i := 0; i < k; i++ {
		histC[i] = steps.Intervals[i].CarbonGPerKWh
		histP[i] = steps.Intervals[i].PriceUSDPerKWh
	}
	h := len(steps.Intervals) - k
	period := len(p.Truth.Intervals)
	pc, sc := model.Predict(histC, period, h, level)
	pp, sp := model.Predict(histP, period, h, level)

	f := &Forecast{IssuedS: t, Level: level,
		Signal: &grid.Signal{Name: steps.Name + "/" + model.Name()}}
	for i, iv := range steps.Intervals {
		if i >= k {
			j := i - k
			iv.CarbonGPerKWh = math.Max(0, pc[j])
			iv.PriceUSDPerKWh = math.Max(0, pp[j])
			f.Carbon = append(f.Carbon, Band{
				Lo: math.Max(0, iv.CarbonGPerKWh-sc[j]), Hi: iv.CarbonGPerKWh + sc[j]})
			f.Price = append(f.Price, Band{
				Lo: math.Max(0, iv.PriceUSDPerKWh-sp[j]), Hi: iv.PriceUSDPerKWh + sp[j]})
		} else {
			f.Carbon = append(f.Carbon, Band{Lo: iv.CarbonGPerKWh, Hi: iv.CarbonGPerKWh})
			f.Price = append(f.Price, Band{Lo: iv.PriceUSDPerKWh, Hi: iv.PriceUSDPerKWh})
		}
		f.Signal.Intervals = append(f.Signal.Intervals, iv)
	}
	return f, nil
}

// revealedSteps counts the prefix of steps already revealed at time t:
// every interval that has started (the operator sees the current
// interval's actual rates as they are metered).
func revealedSteps(steps *grid.Signal, t float64) int {
	k := 0
	for _, iv := range steps.Intervals {
		if iv.StartS > t {
			break
		}
		k++
	}
	return k
}

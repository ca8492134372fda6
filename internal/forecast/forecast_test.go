package forecast

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// synthetic builds a weekly-seasonal series with optional trend and noise.
func synthetic(weeks int, trendPerHour, noise float64, seed uint64) []float64 {
	r := rng.New(seed)
	out := make([]float64, weeks*SeasonLength)
	for t := range out {
		hod := t % 24
		dow := (t / 24) % 7
		// Diurnal hump peaking at ~13:30 so the daily peak hour is
		// well-defined (a flat plateau would make argmax noise-driven).
		base := 10.0
		if hod >= 7 && hod < 21 {
			base = 10 + 90*math.Sin(math.Pi*float64(hod-7)/13)
		}
		if dow >= 5 {
			base *= 0.4
		}
		out[t] = base + trendPerHour*float64(t) + noise*r.Normal()
		if out[t] < 0 {
			out[t] = 0
		}
	}
	return out
}

func TestFitTooShort(t *testing.T) {
	if _, err := Fit(make([]float64, SeasonLength), Config{}); err == nil {
		t.Fatal("expected ErrTooShort")
	}
}

func TestFitBadFactors(t *testing.T) {
	series := synthetic(3, 0, 0, 1)
	for _, cfg := range []Config{{Alpha: 1.5}, {Beta: -0.1}, {Gamma: 2}} {
		if _, err := Fit(series, cfg); err == nil {
			t.Fatalf("expected factor validation error for %+v", cfg)
		}
	}
}

func TestForecastTracksSeasonality(t *testing.T) {
	series := synthetic(4, 0, 2, 3)
	m, err := Fit(series, Config{})
	if err != nil {
		t.Fatal(err)
	}
	pred := m.Forecast(SeasonLength)
	// Weekday day-hours must be forecast far above night hours.
	day := pred[10] // hour 10, Monday
	night := pred[3]
	if day < 3*night {
		t.Fatalf("forecast lost the diurnal shape: day=%v night=%v", day, night)
	}
	// Weekend suppression: Saturday noon ≈ 40% of Monday noon.
	satNoon := pred[5*24+12]
	monNoon := pred[12]
	if satNoon > 0.7*monNoon {
		t.Fatalf("forecast lost the weekend dip: sat=%v mon=%v", satNoon, monNoon)
	}
}

func TestForecastNonNegative(t *testing.T) {
	series := synthetic(3, -0.05, 1, 5) // decaying series
	m, err := Fit(series, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range m.Forecast(500) {
		if v < 0 {
			t.Fatal("forecast must be clamped at zero")
		}
	}
}

func TestTrendCaptured(t *testing.T) {
	up := synthetic(4, 0.02, 0, 7)
	m, err := Fit(up, Config{})
	if err != nil {
		t.Fatal(err)
	}
	pred := m.Forecast(2 * SeasonLength)
	// The same hour one week apart must grow under a positive trend.
	if pred[SeasonLength+12] <= pred[12] {
		t.Fatalf("trend lost: %v then %v", pred[12], pred[SeasonLength+12])
	}
}

func TestObserveRolling(t *testing.T) {
	series := synthetic(4, 0, 1, 9)
	m, err := Fit(series[:3*SeasonLength], Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, y := range series[3*SeasonLength:] {
		m.Observe(y)
	}
	// After observing the fourth week, the 1-step forecast should be
	// close to the series' repeating value at that position.
	next := m.Forecast(1)[0]
	want := series[len(series)-SeasonLength] // same hour last week
	if math.Abs(next-want) > 25 {
		t.Fatalf("rolling forecast %v far from seasonal value %v", next, want)
	}
}

func TestBacktestBeatsNaiveUnderTrend(t *testing.T) {
	// With a trend, Holt-Winters must beat the seasonal-naive baseline.
	series := synthetic(6, 0.03, 3, 11)
	hw, err := Backtest(series, 48, Config{})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := BacktestNaive(series, 48, SeasonLength)
	if err != nil {
		t.Fatal(err)
	}
	if hw.MAE >= naive.MAE {
		t.Fatalf("Holt-Winters MAE %v should beat naive %v under trend", hw.MAE, naive.MAE)
	}
	if !hw.PeakHourHit {
		t.Fatal("forecast should place the daily peak correctly")
	}
}

func TestBacktestAccuracy(t *testing.T) {
	series := synthetic(6, 0, 2, 13)
	ev, err := Backtest(series, 72, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if ev.SMAPE > 0.25 {
		t.Fatalf("SMAPE %v too high on clean seasonal data", ev.SMAPE)
	}
}

func TestBacktestValidation(t *testing.T) {
	series := synthetic(4, 0, 0, 1)
	if _, err := Backtest(series, 30, Config{}); err == nil {
		t.Fatal("holdout not multiple of 24 should fail")
	}
	if _, err := Backtest(series, 0, Config{}); err == nil {
		t.Fatal("zero holdout should fail")
	}
	if _, err := BacktestNaive(series[:190], 24, SeasonLength); err == nil {
		t.Fatal("naive backtest with too-short series should fail")
	}
}

// TestBacktestEvaluationsPinned pins every backtest's Evaluation bit for
// bit on one fixed series, so the three backtests keep scoring exactly as
// they did before they shared one scorer.
func TestBacktestEvaluationsPinned(t *testing.T) {
	series := synthetic(6, 0.03, 3, 11)
	hw, err := Backtest(series, 72, Config{})
	if err != nil {
		t.Fatal(err)
	}
	lg, err := BacktestLog(series, 72, Config{Alpha: 0.15, Beta: 0.02, Gamma: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	nv, err := BacktestNaive(series, 72, SeasonLength)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got       Evaluation
		mae, smap uint64
		peak      bool
	}{
		{"Backtest", hw, 0x40081e9b6b349dc5, 0x3fb1174edb46f133, false},
		{"BacktestLog", lg, 0x402e3031c8f86f80, 0x3fd67025ff61aa4a, true},
		{"BacktestNaive", nv, 0x4015c63bbb05dd47, 0x3fc08e612e02e0fa, false},
	} {
		if math.Float64bits(c.got.MAE) != c.mae || math.Float64bits(c.got.SMAPE) != c.smap || c.got.PeakHourHit != c.peak {
			t.Errorf("%s = %+v, want MAE %v SMAPE %v PeakHourHit %v", c.name, c.got,
				math.Float64frombits(c.mae), math.Float64frombits(c.smap), c.peak)
		}
	}
}

// TestBacktestHoldoutLongerThanSeries asks every backtest to hold out more
// samples than the series has: each must return an error, not panic.
func TestBacktestHoldoutLongerThanSeries(t *testing.T) {
	series := synthetic(2, 0, 0, 1)
	holdout := len(series) + 24
	if _, err := Backtest(series, holdout, Config{}); !errors.Is(err, ErrTooShort) {
		t.Errorf("Backtest: err %v, want ErrTooShort", err)
	}
	if _, err := BacktestLog(series, holdout, Config{}); !errors.Is(err, ErrTooShort) {
		t.Errorf("BacktestLog: err %v, want ErrTooShort", err)
	}
	if _, err := BacktestNaive(series, holdout, SeasonLength); !errors.Is(err, ErrTooShort) {
		t.Errorf("BacktestNaive: err %v, want ErrTooShort", err)
	}
}

func TestFitLogRejectsNegatives(t *testing.T) {
	series := synthetic(3, 0, 0, 1)
	series[10] = -5
	if _, err := FitLog(series, Config{}); err == nil {
		t.Fatal("negative traffic should fail FitLog")
	}
}

func TestForecastLogNonNegativeAndTracking(t *testing.T) {
	series := synthetic(4, 0, 2, 21)
	m, err := FitLog(series, Config{})
	if err != nil {
		t.Fatal(err)
	}
	pred := ForecastLog(m, SeasonLength)
	for _, v := range pred {
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("bad log-space forecast %v", v)
		}
	}
	// Shape preserved through the transform: day >> night.
	if pred[13] < 2*pred[3] {
		t.Fatalf("log-space forecast lost the shape: day=%v night=%v", pred[13], pred[3])
	}
}

func TestBacktestLogHandlesMultiplicativeNoise(t *testing.T) {
	// Multiplicative jitter: log-space fitting should do no worse than
	// twice the linear-space error, typically much better.
	r := rng.New(31)
	series := synthetic(6, 0, 0, 33)
	for i := range series {
		series[i] *= math.Exp(0.15 * r.Normal())
	}
	logEv, err := BacktestLog(series, 48, Config{Alpha: 0.15, Beta: 0.02, Gamma: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	linEv, err := Backtest(series, 48, Config{Alpha: 0.15, Beta: 0.02, Gamma: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if logEv.SMAPE > 2*linEv.SMAPE {
		t.Fatalf("log-space SMAPE %v vs linear %v", logEv.SMAPE, linEv.SMAPE)
	}
	if logEv.SMAPE > 0.5 {
		t.Fatalf("log-space SMAPE %v too large", logEv.SMAPE)
	}
}

func TestBacktestLogValidation(t *testing.T) {
	series := synthetic(4, 0, 0, 1)
	if _, err := BacktestLog(series, 30, Config{}); err == nil {
		t.Fatal("holdout not multiple of 24 should fail")
	}
}

func TestSeasonalNaiveShortSeries(t *testing.T) {
	out := SeasonalNaive([]float64{1, 2}, 5, 168)
	for _, v := range out {
		if v != 0 {
			t.Fatal("short-series naive should be zeros")
		}
	}
}

// Property: forecasts of a non-negative series are always finite and
// non-negative for any smoothing factors in range.
func TestForecastFiniteProperty(t *testing.T) {
	f := func(seed uint64, a, b, g uint8) bool {
		cfg := Config{
			Alpha:  0.05 + float64(a%90)/100,
			Beta:   0.05 + float64(b%90)/100,
			Gamma:  0.05 + float64(g%90)/100,
			Season: 24,
		}
		r := rng.New(seed)
		series := make([]float64, 24*5)
		for i := range series {
			series[i] = 50 + 30*math.Sin(float64(i%24)/24*2*math.Pi) + 5*r.Normal()
		}
		m, err := Fit(series, cfg)
		if err != nil {
			return false
		}
		for _, v := range m.Forecast(48) {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFit6Weeks(b *testing.B) {
	series := synthetic(6, 0.01, 2, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(series, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForecastWeek(b *testing.B) {
	m, err := Fit(synthetic(6, 0.01, 2, 1), Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Forecast(SeasonLength)
	}
}

package synth

import (
	"math"
	"sync"
	"testing"

	"repro/internal/envmodel"
	"repro/internal/geo"
	"repro/internal/services"
	"repro/internal/temporal"
)

// testConfig is a small but structurally complete dataset for unit tests.
func testConfig() Config {
	return Config{Seed: 1, Scale: 0.05, OutdoorCount: 200}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(testConfig())
	b := Generate(testConfig())
	if len(a.Indoor) != len(b.Indoor) {
		t.Fatal("antenna counts differ between identical seeds")
	}
	for i := range a.Indoor {
		if a.Indoor[i].Name != b.Indoor[i].Name || a.Indoor[i].Archetype != b.Indoor[i].Archetype {
			t.Fatalf("antenna %d differs between identical seeds", i)
		}
	}
	for i := 0; i < a.Traffic.Rows(); i++ {
		for j := 0; j < a.Traffic.Cols(); j++ {
			if a.Traffic.At(i, j) != b.Traffic.At(i, j) {
				t.Fatalf("traffic (%d,%d) differs between identical seeds", i, j)
			}
		}
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	a := Generate(Config{Seed: 1, Scale: 0.05, OutdoorCount: 10})
	b := Generate(Config{Seed: 2, Scale: 0.05, OutdoorCount: 10})
	if a.Traffic.At(0, 0) == b.Traffic.At(0, 0) {
		t.Fatal("different seeds should differ")
	}
}

func TestFullScaleCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale generation in -short mode")
	}
	ds := Generate(Config{Seed: 7, Scale: 1, OutdoorCount: 100})
	// Table 1 rounding: every env contributes round(count), so the total
	// matches the paper's N exactly at Scale=1.
	if len(ds.Indoor) != envmodel.TotalIndoorAntennas {
		t.Fatalf("indoor antennas = %d, want %d", len(ds.Indoor), envmodel.TotalIndoorAntennas)
	}
	if ds.Sites < 1000 {
		t.Fatalf("sites = %d, paper has >1000", ds.Sites)
	}
	counts := map[envmodel.EnvType]int{}
	for _, a := range ds.Indoor {
		counts[a.Env]++
	}
	for _, e := range envmodel.AllEnvTypes() {
		if counts[e] != e.AntennaCount() {
			t.Fatalf("%v count %d, want %d", e, counts[e], e.AntennaCount())
		}
	}
}

func TestTrafficMatrixShapeAndPositivity(t *testing.T) {
	ds := Generate(testConfig())
	if ds.Traffic.Rows() != len(ds.Indoor) || ds.Traffic.Cols() != services.M {
		t.Fatal("traffic matrix shape")
	}
	for i := 0; i < ds.Traffic.Rows(); i++ {
		var rowSum float64
		for j := 0; j < ds.Traffic.Cols(); j++ {
			v := ds.Traffic.At(i, j)
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("traffic (%d,%d) = %v", i, j, v)
			}
			rowSum += v
		}
		if rowSum <= 0 {
			t.Fatalf("antenna %d has zero traffic", i)
		}
		// Row total equals the antenna volume (mix sums to 1).
		if math.Abs(rowSum-ds.Indoor[i].Volume) > 1e-6*ds.Indoor[i].Volume {
			t.Fatalf("antenna %d row sum %v != volume %v", i, rowSum, ds.Indoor[i].Volume)
		}
	}
}

func TestNamesClassifyBack(t *testing.T) {
	ds := Generate(testConfig())
	for _, a := range ds.Indoor {
		env, ok := envmodel.ClassifyName(a.Name)
		if !ok || env != a.Env {
			t.Fatalf("antenna name %q does not classify to %v", a.Name, a.Env)
		}
	}
}

func TestArchetypesRespectEnvMix(t *testing.T) {
	ds := Generate(Config{Seed: 3, Scale: 0.4, OutdoorCount: 10})
	for _, a := range ds.Indoor {
		allowed := map[int]bool{}
		for _, m := range envmodel.ArchetypeMix(a.Env, a.Paris) {
			allowed[m.Archetype] = true
		}
		if !allowed[a.Archetype] {
			t.Fatalf("antenna %s (env %v paris %v) has archetype %d outside its mix",
				a.Name, a.Env, a.Paris, a.Archetype)
		}
	}
}

func TestRegionalMetroCities(t *testing.T) {
	ds := Generate(Config{Seed: 5, Scale: 0.3, OutdoorCount: 10})
	valid := map[string]bool{"Lille": true, "Lyon": true, "Rennes": true, "Toulouse": true}
	for _, a := range ds.Indoor {
		if a.Env == envmodel.Metro && !a.Paris && !valid[a.City] {
			t.Fatalf("non-Paris metro in %s; the paper lists Lille, Lyon, Rennes, Toulouse", a.City)
		}
	}
}

func TestSiteSharing(t *testing.T) {
	ds := Generate(testConfig())
	// All antennas of a site must share env, city and archetype.
	type siteInfo struct {
		env  envmodel.EnvType
		city string
		arch int
	}
	sites := map[int]siteInfo{}
	for _, a := range ds.Indoor {
		if info, ok := sites[a.Site]; ok {
			if info.env != a.Env || info.city != a.City || info.arch != a.Archetype {
				t.Fatalf("site %d has inconsistent antennas", a.Site)
			}
		} else {
			sites[a.Site] = siteInfo{a.Env, a.City, a.Archetype}
		}
	}
	if len(sites) != ds.Sites {
		t.Fatalf("Sites=%d but %d distinct site IDs", ds.Sites, len(sites))
	}
}

func TestHourlyTotalsIntegrateToVolume(t *testing.T) {
	ds := Generate(testConfig())
	for _, a := range ds.Indoor[:10] {
		series := ds.HourlyTotals(a)
		if len(series) != ds.Cal.Hours() {
			t.Fatal("series length")
		}
		var sum float64
		for _, v := range series {
			if v < 0 {
				t.Fatal("negative hourly traffic")
			}
			sum += v
		}
		if math.Abs(sum-a.Volume) > 1e-6*a.Volume {
			t.Fatalf("hourly totals sum %v != volume %v", sum, a.Volume)
		}
	}
}

func TestHourlyTotalsRowMatchesGeneratedRow(t *testing.T) {
	// For the generation-time traffic row, HourlyTotalsRow must be
	// bit-identical to HourlyTotals: same shape-total accumulation order,
	// same grid loop. This is the parity contract the warm-refresh
	// forecast path relies on at drift 0.
	ds := Generate(testConfig())
	for _, a := range ds.Indoor[:10] {
		want := ds.HourlyTotals(a)
		got := ds.HourlyTotalsRow(a, ds.Traffic.Row(a.ID))
		for h := range want {
			if math.Float64bits(got[h]) != math.Float64bits(want[h]) {
				t.Fatalf("antenna %q hour %d: row-derived %v != generated %v", a.Name, h, got[h], want[h])
			}
		}
	}
}

func TestHourlyTotalsRowTracksChangedRow(t *testing.T) {
	// A scaled row must scale the series: the derivation reads the row,
	// not the frozen generation-time totals.
	ds := Generate(testConfig())
	a := ds.Indoor[0]
	row := ds.Traffic.Row(a.ID)
	scaled := make([]float64, len(row))
	for j, v := range row {
		scaled[j] = 2 * v
	}
	base := ds.HourlyTotalsRow(a, row)
	bumped := ds.HourlyTotalsRow(a, scaled)
	for h := range base {
		if math.Abs(bumped[h]-2*base[h]) > 1e-9*math.Max(base[h], 1e-9) {
			t.Fatalf("hour %d: doubled row gave %v, want %v", h, bumped[h], 2*base[h])
		}
	}
}

func TestHourlyServiceIntegratesToCell(t *testing.T) {
	ds := Generate(testConfig())
	a := ds.Indoor[0]
	for _, j := range []int{0, services.MustID("Netflix"), services.MustID("Microsoft Teams")} {
		series := ds.HourlyService(a, j)
		var sum float64
		for _, v := range series {
			sum += v
		}
		cell := ds.Traffic.At(a.ID, j)
		if math.Abs(sum-cell) > 1e-6*math.Max(cell, 1e-12) {
			t.Fatalf("service %d series sum %v != cell %v", j, sum, cell)
		}
	}
}

func TestHourlyServiceSumsToTotals(t *testing.T) {
	// Summing per-service series over all services equals the totals
	// series: the decomposition is exact.
	ds := Generate(Config{Seed: 11, Scale: 0.02, OutdoorCount: 5})
	a := ds.Indoor[0]
	totals := ds.HourlyTotals(a)
	acc := make([]float64, len(totals))
	for j := 0; j < services.M; j++ {
		for h, v := range ds.HourlyService(a, j) {
			acc[h] += v
		}
	}
	for h := range totals {
		if math.Abs(acc[h]-totals[h]) > 1e-6*math.Max(totals[h], 1e-9) {
			t.Fatalf("hour %d: sum of services %v != total %v", h, acc[h], totals[h])
		}
	}
}

func TestCommuteAntennasPeakAtCommuteHours(t *testing.T) {
	ds := Generate(Config{Seed: 13, Scale: 0.1, OutdoorCount: 5})
	for _, a := range ds.Indoor {
		if a.Archetype != 0 {
			continue
		}
		series := ds.HourlyTotals(a)
		// Tuesday of the second week: day 8.
		day := 8
		morning := series[day*24+8]
		night := series[day*24+3]
		if morning <= night*3 {
			t.Fatalf("commute antenna %s morning %v vs night %v", a.Name, morning, night)
		}
		return
	}
	t.Skip("no archetype-0 antenna at this scale/seed")
}

func TestStrikeDayTrough(t *testing.T) {
	ds := Generate(Config{Seed: 17, Scale: 0.1, OutdoorCount: 5})
	sd := ds.Cal.StrikeDay()
	for _, a := range ds.Indoor {
		if a.Archetype != 0 && a.Archetype != 4 {
			continue
		}
		series := ds.HourlyTotals(a)
		strike := series[sd*24+8]
		ref := series[(sd-7)*24+8]
		if strike >= ref*0.5 {
			t.Fatalf("strike-day traffic %v not suppressed vs %v", strike, ref)
		}
		return
	}
	t.Skip("no Paris commuter antenna at this scale/seed")
}

func TestStadiumEventBursts(t *testing.T) {
	ds := Generate(Config{Seed: 19, Scale: 0.2, OutdoorCount: 5})
	for _, a := range ds.Indoor {
		if a.Env != envmodel.Stadium || len(a.Events()) == 0 {
			continue
		}
		ev := a.Events()[0]
		series := ds.HourlyTotals(a)
		during := series[ev.FirstDay*24+ev.StartHour]
		// Compare against the same hour the day before (no event).
		quietDay := ev.FirstDay - 1
		if quietDay < 0 {
			quietDay = ev.LastDay + 1
		}
		quiet := series[quietDay*24+ev.StartHour]
		if during <= quiet*3 {
			t.Fatalf("event hour %v not bursting vs quiet %v", during, quiet)
		}
		return
	}
	t.Skip("no stadium with events at this scale/seed")
}

func TestSignatureEventsAttached(t *testing.T) {
	ds := Generate(Config{Seed: 23, Scale: 0.5, OutdoorCount: 5})
	var nba, sirha bool
	for _, a := range ds.Indoor {
		for _, ev := range a.Events() {
			switch ev.Label {
			case "nba-paris":
				nba = true
				if ev.FirstDay != ds.Cal.StrikeDay() {
					t.Fatal("NBA event must be on Jan 19")
				}
			case "sirha-lyon":
				sirha = true
				if ev.LastDay-ev.FirstDay < 3 {
					t.Fatal("Sirha should span multiple days")
				}
			}
		}
	}
	if !nba || !sirha {
		t.Skipf("signature events not both present at this scale (nba=%v sirha=%v)", nba, sirha)
	}
}

func TestOutdoorPopulation(t *testing.T) {
	ds := Generate(testConfig())
	if len(ds.Outdoor) != 200 {
		t.Fatalf("outdoor count %d", len(ds.Outdoor))
	}
	for _, a := range ds.Outdoor {
		if !a.Outdoor || a.Archetype != -1 {
			t.Fatal("outdoor antenna flags")
		}
	}
	// Outdoor antennas are near indoor ones: each should have an indoor
	// neighbour within ~2 km.
	idx := geo.NewIndex(ds.IndoorLocations(), 1000)
	for _, a := range ds.Outdoor[:50] {
		if len(idx.Within(a.Location, 2500)) == 0 {
			t.Fatalf("outdoor antenna %s has no indoor neighbour", a.Name)
		}
	}
}

func TestOutdoorMixTracksGeneralUseProfile(t *testing.T) {
	ds := Generate(Config{Seed: 29, Scale: 0.05, OutdoorCount: 500})
	pop := globalPopularity()
	arch := envmodel.Archetypes()
	// The average outdoor mix share tracks the global popularity tilted
	// towards the general-use (cluster 1) profile, per Section 5.3.
	want := make([]float64, services.M)
	var wantSum float64
	for j := range want {
		want[j] = pop[j] * (1 + 0.65*(arch[1].Multipliers[j]-1))
		wantSum += want[j]
	}
	for j := range want {
		want[j] /= wantSum
	}
	meanShare := make([]float64, services.M)
	for i := 0; i < ds.OutdoorTraffic.Rows(); i++ {
		row := ds.OutdoorTraffic.Row(i)
		var sum float64
		for _, v := range row {
			sum += v
		}
		for j, v := range row {
			meanShare[j] += v / sum
		}
	}
	for j := range meanShare {
		meanShare[j] /= float64(ds.OutdoorTraffic.Rows())
		if math.Abs(meanShare[j]-want[j]) > 0.25*want[j]+0.002 {
			t.Fatalf("outdoor mean share of service %d = %v, want %v", j, meanShare[j], want[j])
		}
	}
}

func TestGlobalPopularityNormalized(t *testing.T) {
	pop := globalPopularity()
	var sum float64
	for _, p := range pop {
		if p <= 0 {
			t.Fatal("non-positive popularity")
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("popularity sums to %v", sum)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Scale != 1 || c.OutdoorCount != 22000 || c.MixConcentration != 300 {
		t.Fatalf("defaults = %+v", c)
	}
}

func BenchmarkGenerateScale01(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Generate(Config{Seed: 1, Scale: 0.1, OutdoorCount: 100})
	}
}

func BenchmarkHourlyTotals(b *testing.B) {
	ds := Generate(testConfig())
	a := ds.Indoor[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ds.HourlyTotals(a)
	}
}

// shapeWeight returns the relative activity of services with temporal
// shape s at (day, hourOfDay): the venue envelope (template + events) times
// the service-shape modulation. The post-event shape samples the venue
// surge two hours late, reproducing the Waze pattern of Section 6.
//
// This scalar form is the reference the cached weightGrid must reproduce
// bit-for-bit; the hourly-series hot paths read the grid instead.
func (a *Antenna) shapeWeight(cal *temporal.Calendar, day, hourOfDay int, s services.TemporalShape) float64 {
	w := a.template.Weight(cal, day, hourOfDay)
	surgeHour := hourOfDay
	surgeDay := day
	if s == services.ShapePostEvent {
		surgeHour -= 2
		if surgeHour < 0 {
			surgeHour += 24
			surgeDay--
		}
	}
	for _, ev := range a.events {
		if ev.Active(surgeDay, surgeHour) {
			w += ev.Intensity
		}
	}
	return w * temporal.ShapeModifier(s, hourOfDay, cal.IsWeekend(day))
}

// shapeWeightSums returns, per temporal shape, the sum of shapeWeight over
// every hour of the calendar — the normalization constant that makes
// hourly series integrate to the antenna's total traffic. Reference
// implementation; the hot paths use the grid's identically-ordered sums.
func (a *Antenna) shapeWeightSums(cal *temporal.Calendar) [numShapes]float64 {
	var sums [numShapes]float64
	for day := 0; day < cal.Days(); day++ {
		for h := 0; h < 24; h++ {
			for s := 0; s < numShapes; s++ {
				sums[s] += a.shapeWeight(cal, day, h, services.TemporalShape(s))
			}
		}
	}
	return sums
}

// referenceHourlyTotals is the pre-grid scalar derivation of HourlyTotals,
// kept as the bit-identity reference for the cached weight grid.
func referenceHourlyTotals(d *Dataset, a *Antenna) []float64 {
	sums := a.shapeWeightSums(d.Cal)
	out := make([]float64, d.Cal.Hours())
	for day := 0; day < d.Cal.Days(); day++ {
		for h := 0; h < 24; h++ {
			var v float64
			for s := 0; s < numShapes; s++ {
				if sums[s] == 0 {
					continue
				}
				v += a.shapeTraffic[s] * a.shapeWeight(d.Cal, day, h, services.TemporalShape(s)) / sums[s]
			}
			out[day*24+h] = v
		}
	}
	return out
}

// referenceHourlyService mirrors the pre-grid HourlyService.
func referenceHourlyService(d *Dataset, a *Antenna, serviceID int) []float64 {
	var total float64
	if a.Outdoor {
		total = d.OutdoorTraffic.At(a.ID, serviceID)
	} else {
		total = d.Traffic.At(a.ID, serviceID)
	}
	shape := services.Get(serviceID).Shape
	sums := a.shapeWeightSums(d.Cal)
	out := make([]float64, d.Cal.Hours())
	if sums[shape] == 0 {
		return out
	}
	for day := 0; day < d.Cal.Days(); day++ {
		for h := 0; h < 24; h++ {
			out[day*24+h] = total * a.shapeWeight(d.Cal, day, h, shape) / sums[shape]
		}
	}
	return out
}

// The weight grid must reproduce the scalar shapeWeight derivations
// bit-for-bit, event venues (post-event surge shift) included, for every
// antenna that reads a shared grid: each grid value is checked against the
// scalar shapeWeight of the antenna's own template and events.
func TestWeightGridMatchesScalarReference(t *testing.T) {
	ds := Generate(Config{Seed: 17, Scale: 0.05, OutdoorCount: 20})
	readers := map[*weightGrid]int{}
	ants := append(append([]*Antenna{}, ds.Indoor...), ds.Outdoor...)
	for _, a := range ants {
		readers[a.grid]++
	}
	checked, eventful := 0, 0
	// Shared grids read by each kind of antenna: indoor without events,
	// indoor with events, outdoor.
	var sharedQuiet, sharedEvent, sharedOutdoor int
	for _, a := range ants[:len(ds.Indoor)+5] {
		if len(a.events) > 0 {
			eventful++
		} else if checked > 30 && eventful > 0 && !a.Outdoor {
			continue
		}
		checked++
		if readers[a.grid] > 1 {
			switch {
			case a.Outdoor:
				sharedOutdoor++
			case len(a.events) > 0:
				sharedEvent++
			default:
				sharedQuiet++
			}
		}
		g := a.grid.built(ds.Cal)
		for day := 0; day < ds.Cal.Days(); day++ {
			we := 0
			if ds.Cal.IsWeekend(day) {
				we = 1
			}
			for h := 0; h < 24; h++ {
				for s := 0; s < numShapes; s++ {
					got := g.at(day*24+h, h, we, services.TemporalShape(s))
					if want := a.shapeWeight(ds.Cal, day, h, services.TemporalShape(s)); got != want {
						t.Fatalf("antenna %q day %d hour %d shape %d: grid %v != shapeWeight %v", a.Name, day, h, s, got, want)
					}
				}
			}
		}
		got := ds.HourlyTotals(a)
		want := referenceHourlyTotals(ds, a)
		for h := range want {
			if got[h] != want[h] {
				t.Fatalf("antenna %q hour %d: grid total %v != reference %v", a.Name, h, got[h], want[h])
			}
		}
		for _, j := range []int{0, 7, services.M - 1} {
			gs := ds.HourlyService(a, j)
			ws := referenceHourlyService(ds, a, j)
			for h := range ws {
				if gs[h] != ws[h] {
					t.Fatalf("antenna %q service %d hour %d: grid %v != reference %v", a.Name, j, h, gs[h], ws[h])
				}
			}
		}
	}
	if eventful == 0 {
		t.Fatal("no event-driven antennas exercised; parity test lost its surge-shift coverage")
	}
	if sharedQuiet < 2 || sharedEvent < 2 || sharedOutdoor < 2 {
		t.Fatalf("shared-grid readers checked: %d indoor without events, %d with events, %d outdoor; want at least 2 of each",
			sharedQuiet, sharedEvent, sharedOutdoor)
	}
}

// Antennas that share a grid may build it from concurrent first uses (the
// pipeline's temporal fan-out does); every caller must see the finished
// grid. Run under -race this also checks the build is synchronized.
func TestSharedGridConcurrentFirstUse(t *testing.T) {
	ds := Generate(Config{Seed: 17, Scale: 0.05, OutdoorCount: 20})
	byGrid := map[*weightGrid][]*Antenna{}
	for _, a := range append(append([]*Antenna{}, ds.Indoor...), ds.Outdoor...) {
		byGrid[a.grid] = append(byGrid[a.grid], a)
	}
	var group []*Antenna
	for _, ants := range byGrid {
		if len(ants) > len(group) {
			group = ants
		}
	}
	if len(group) < 4 {
		t.Fatalf("the most shared grid has %d readers; want at least 4", len(group))
	}
	group = group[:min(len(group), 16)]
	got := make([][]float64, len(group))
	var wg sync.WaitGroup
	for i, a := range group {
		wg.Add(1)
		go func() {
			defer wg.Done()
			row := ds.Traffic.Row(a.ID)
			if a.Outdoor {
				row = ds.OutdoorTraffic.Row(a.ID)
			}
			got[i] = ds.HourlyTotalsRow(a, row)
		}()
	}
	wg.Wait()
	for i, a := range group {
		want := referenceHourlyTotals(ds, a)
		for h := range want {
			if got[i][h] != want[h] {
				t.Fatalf("antenna %q hour %d: concurrent first use gave %v, reference %v", a.Name, h, got[i][h], want[h])
			}
		}
	}
}

// Package synth generates the synthetic nationwide measurement dataset that
// stands in for the operator data of Section 3: per-antenna, per-service
// traffic for 4,762 indoor antennas at 1,000+ sites across 11 indoor
// environment types, plus ~22,000 neighbouring outdoor antennas, over the
// 2022-11-21 → 2023-01-24 recording period.
//
// The generator composes, for every site, a ground-truth archetype drawn
// from the environment's archetype mixture (envmodel), a heavy-tailed
// service mix perturbed with Dirichlet noise, a lognormal volume, a weekly
// activity template with strike-day handling (temporal), and a venue event
// schedule. Hourly series are derived lazily so the full N × M × 1560
// tensor is never materialized.
//
// Ground-truth archetype labels are retained on each antenna for
// validation, but the analysis pipeline never reads them.
package synth

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/envmodel"
	"repro/internal/geo"
	"repro/internal/mat"
	"repro/internal/rng"
	"repro/internal/services"
	"repro/internal/temporal"
)

// numShapes is the count of distinct service temporal shapes.
const numShapes = int(services.ShapePostEvent) + 1

// Antenna is one generated cell (indoor or outdoor). Its hourly series
// (Dataset.HourlyTotals and friends) read a weight grid that it shares
// with every antenna of the same activity template and event schedule,
// so series derivation caches one grid per such pair, not per antenna.
type Antenna struct {
	// ID is the dense index within its population (indoor or outdoor).
	ID int
	// Name is the base-station name carrying the environment keyword, as
	// exploited by the Section 5.2.1 classification.
	Name string
	// Env is the ground-truth indoor environment (indoor antennas only).
	Env envmodel.EnvType
	// Outdoor marks macro antennas of the outdoor comparison population.
	Outdoor bool
	// City is the metropolitan area of the site.
	City string
	// Paris reports whether the site is in the Paris region.
	Paris bool
	// Site is the site ordinal the antenna belongs to.
	Site int
	// Location is the antenna position.
	Location geo.Point
	// Archetype is the ground-truth profile (indoor only; -1 outdoors).
	// The analysis pipeline must not read it.
	Archetype int
	// Volume is the expected total traffic over the period in MB.
	Volume float64

	template *temporal.Template
	events   []temporal.Event
	// shapeTraffic[s] is the total traffic of services with shape s.
	shapeTraffic [numShapes]float64

	// grid is the lazy hour-resolved weight grid of the antenna's
	// (template, event schedule), shared with every antenna that has the
	// same pair (see weightGrid and shareGrids).
	grid *weightGrid
}

// Events returns the venue's scheduled events (empty for most antennas).
func (a *Antenna) Events() []temporal.Event { return a.events }

// Dataset is a generated nationwide measurement campaign.
type Dataset struct {
	Cal *temporal.Calendar
	// Indoor antennas in ID order; Traffic row i corresponds to Indoor[i].
	Indoor []*Antenna
	// Outdoor antennas in ID order, aligned with OutdoorTraffic rows.
	Outdoor []*Antenna
	// Traffic is the N × M total downlink+uplink MB matrix of Section 4.1.
	Traffic *mat.Dense
	// OutdoorTraffic is the corresponding matrix for outdoor antennas.
	OutdoorTraffic *mat.Dense
	// Sites is the number of generated indoor sites.
	Sites int
}

// Config parameterizes dataset generation.
type Config struct {
	// Seed drives all randomness; equal seeds give identical datasets.
	Seed uint64
	// Scale multiplies the paper's antenna counts (1.0 = full scale:
	// 4,762 indoor antennas; 0.05 for quick tests). Must be > 0.
	Scale float64
	// OutdoorCount overrides the outdoor antenna population; when 0 it
	// defaults to round(22000 × Scale).
	OutdoorCount int
	// MixConcentration controls Dirichlet noise on antenna service mixes;
	// higher is less noisy. When 0 it defaults to 300.
	MixConcentration float64
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.OutdoorCount == 0 {
		c.OutdoorCount = int(math.Round(22000 * c.Scale))
	}
	if c.MixConcentration == 0 {
		c.MixConcentration = 300
	}
	return c
}

// antennasPerSite returns the typical antenna count of a site of the given
// environment, reflecting that stadiums and airports concentrate many
// antennas while shops have one or two.
func antennasPerSite(env envmodel.EnvType, r *rng.Source) int {
	var lo, hi int
	switch env {
	case envmodel.Metro:
		lo, hi = 2, 7
	case envmodel.Train:
		lo, hi = 2, 6
	case envmodel.Airport:
		lo, hi = 6, 16
	case envmodel.Workspace:
		lo, hi = 1, 5
	case envmodel.Commercial:
		lo, hi = 1, 4
	case envmodel.Stadium:
		lo, hi = 6, 18
	case envmodel.Expo:
		lo, hi = 4, 12
	case envmodel.Hotel:
		lo, hi = 1, 3
	case envmodel.Hospital:
		lo, hi = 1, 4
	case envmodel.Tunnel:
		lo, hi = 2, 6
	case envmodel.PublicBuilding:
		lo, hi = 1, 4
	default:
		lo, hi = 1, 4
	}
	return lo + r.Intn(hi-lo+1)
}

// globalPopularity returns the service popularity mass p (sums to 1),
// combining the catalog base weights with a Zipf tilt so a few services
// dominate traffic as in the measured network.
func globalPopularity() []float64 {
	p := make([]float64, services.M)
	var sum float64
	for i, s := range services.All() {
		p[i] = s.BaseWeight
		sum += p[i]
	}
	for i := range p {
		p[i] /= sum
	}
	return p
}

// regionalMetroCities are the non-capital cities with metro systems named
// by the paper (cluster 7).
var regionalMetroCities = []string{"Lille", "Lyon", "Rennes", "Toulouse"}

func pickCity(env envmodel.EnvType, paris bool, r *rng.Source) (name string, lat, lon float64) {
	if paris {
		c := envmodel.Cities[0]
		return c.Name, c.Lat, c.Lon
	}
	if env == envmodel.Metro {
		name = regionalMetroCities[r.Intn(len(regionalMetroCities))]
		for _, c := range envmodel.Cities {
			if c.Name == name {
				return c.Name, c.Lat, c.Lon
			}
		}
	}
	c := envmodel.Cities[1+r.Intn(len(envmodel.Cities)-1)]
	return c.Name, c.Lat, c.Lon
}

// jitter returns a point within roughly radiusMeters of (lat, lon).
func jitter(lat, lon, radiusMeters float64, r *rng.Source) geo.Point {
	dLat := (r.Float64()*2 - 1) * radiusMeters / 111_320.0
	cos := math.Cos(lat * math.Pi / 180)
	if cos < 0.1 {
		cos = 0.1
	}
	dLon := (r.Float64()*2 - 1) * radiusMeters / (111_320.0 * cos)
	return geo.Point{Lat: lat + dLat, Lon: lon + dLon}
}

// scheduleEvents builds the event calendar of a venue site. Stadium events
// are evening surges on scattered days; expo events span consecutive
// daytime days.
func scheduleEvents(env envmodel.EnvType, cal *temporal.Calendar, r *rng.Source) []temporal.Event {
	var events []temporal.Event
	switch env {
	case envmodel.Stadium:
		// Roughly one event per 6-10 days.
		day := 2 + r.Intn(6)
		for day < cal.Days() {
			start := 18 + r.Intn(2)
			events = append(events, temporal.Event{
				FirstDay: day, LastDay: day,
				StartHour: start, EndHour: start + 4,
				Intensity: 20 + 20*r.Float64(),
				Label:     "match",
			})
			day += 6 + r.Intn(5)
		}
	case envmodel.Expo:
		// One or two multi-day fairs over the period.
		n := 1 + r.Intn(2)
		day := 3 + r.Intn(12)
		for i := 0; i < n && day < cal.Days()-4; i++ {
			span := 2 + r.Intn(3)
			events = append(events, temporal.Event{
				FirstDay: day, LastDay: day + span - 1,
				StartHour: 9, EndHour: 19,
				Intensity: 10 + 10*r.Float64(),
				Label:     "fair",
			})
			day += span + 14 + r.Intn(10)
		}
	}
	return events
}

// Generate builds a synthetic dataset from the configuration.
func Generate(cfg Config) *Dataset {
	cfg = cfg.withDefaults()
	root := rng.New(cfg.Seed)
	cal := temporal.NewCalendar()
	arch := envmodel.Archetypes()
	pop := globalPopularity()

	ds := &Dataset{Cal: cal}

	// --- Indoor antennas, site by site. ---
	siteRng := root.Split()
	mixRng := root.Split()
	volRng := root.Split()
	siteOrdinal := 0
	for _, env := range envmodel.AllEnvTypes() {
		remaining := int(math.Round(float64(env.AntennaCount()) * cfg.Scale))
		if remaining < 1 {
			remaining = 1
		}
		siteInEnv := 0
		for remaining > 0 {
			count := antennasPerSite(env, siteRng)
			if count > remaining {
				count = remaining
			}
			remaining -= count
			siteInEnv++
			siteOrdinal++

			paris := siteRng.Float64() < envmodel.ParisFraction(env)
			city, cLat, cLon := pickCity(env, paris, siteRng)
			siteLoc := jitter(cLat, cLon, 12_000, siteRng)
			events := scheduleEvents(env, cal, siteRng)

			// Site-level archetype: antennas of a site share context.
			mix := envmodel.ArchetypeMix(env, paris)
			weights := make([]float64, len(mix))
			for i, m := range mix {
				weights[i] = m.Weight
			}
			archID := mix[siteRng.Choice(weights)].Archetype
			a := arch[archID]

			for k := 0; k < count; k++ {
				ant := &Antenna{
					ID:        len(ds.Indoor),
					Name:      envmodel.NameFor(env, city, siteInEnv, k),
					Env:       env,
					City:      city,
					Paris:     paris,
					Site:      siteOrdinal - 1,
					Location:  jitter(siteLoc.Lat, siteLoc.Lon, 150, siteRng),
					Archetype: archID,
					template:  temporal.ByName(a.Template),
					events:    events,
				}
				ant.Volume = volRng.LogNormal(a.VolumeMu, a.VolumeSigma)
				ds.Indoor = append(ds.Indoor, ant)
			}
		}
	}
	ds.Sites = siteOrdinal

	// Special fixed events of Section 6: the cross-Atlantic NBA game at a
	// Paris arena on the evening of Jan 19 (cluster 8), and the 4-day
	// Sirha fair at a Lyon expo center Jan 19-24 (cluster 5).
	attachSignatureEvents(ds, cal)

	// Indoor traffic matrix.
	ds.Traffic = mat.NewDense(len(ds.Indoor), services.M)
	base := make([]float64, services.M)
	alpha := make([]float64, services.M)
	for _, ant := range ds.Indoor {
		a := arch[ant.Archetype]
		var sum float64
		for j := range base {
			base[j] = pop[j] * a.Multipliers[j]
			sum += base[j]
		}
		for j := range alpha {
			alpha[j] = base[j] / sum * cfg.MixConcentration
		}
		row := ds.Traffic.Row(ant.ID)
		mixRng.Dirichlet(alpha, row)
		for j := range row {
			row[j] *= ant.Volume
		}
		ant.fillShapeTraffic(row)
	}

	// --- Outdoor antennas: general-purpose macro cells near the sites. ---
	// Their composition follows the general-population usage profile that
	// cluster 1 captures indoors (Section 5.3 finds ~70% of outdoor
	// antennas classified into the general-use cluster), softened towards
	// the global mean.
	outMult := make([]float64, services.M)
	for j := range outMult {
		outMult[j] = 1 + 0.65*(arch[1].Multipliers[j]-1)
	}
	outRng := root.Split()
	ds.Outdoor = make([]*Antenna, 0, cfg.OutdoorCount)
	ds.OutdoorTraffic = mat.NewDense(max(cfg.OutdoorCount, 1), services.M)
	for i := 0; i < cfg.OutdoorCount; i++ {
		// Anchor near a random indoor site so the 1 km neighbourhood
		// queries of Section 5.3 find real neighbours.
		anchor := ds.Indoor[outRng.Intn(len(ds.Indoor))]
		ant := &Antenna{
			ID:        i,
			Name:      fmt.Sprintf("%s_MACRO_O%05d", upper(anchor.City), i),
			Outdoor:   true,
			City:      anchor.City,
			Paris:     anchor.Paris,
			Site:      -1,
			Location:  jitter(anchor.Location.Lat, anchor.Location.Lon, 900, outRng),
			Archetype: -1,
			template:  temporal.ByName("diurnal"),
		}
		ant.Volume = outRng.LogNormal(9.0, 0.9)
		// Outdoor mixes hover around the global popularity with mild
		// lognormal dispersion: general-purpose traffic, per Section 5.3.
		// Heterogeneous blend: most macro cells track the general-use
		// profile, but cells near specialized venues absorb a fraction of
		// the local indoor context, scattering a minority of outdoor
		// antennas into other clusters as in Fig. 9.
		blend := 0.3 + 0.7*outRng.Float64()
		var anchorMult []float64
		if anchor.Archetype >= 0 {
			anchorMult = arch[anchor.Archetype].Multipliers
		}
		contextPull := 0.55 * outRng.Float64()
		row := ds.OutdoorTraffic.Row(i)
		var sum float64
		for j := range row {
			m := 1 + blend*(outMult[j]-1)/0.65
			if anchorMult != nil {
				m *= 1 + contextPull*(anchorMult[j]-1)
			}
			if m < 0.05 {
				m = 0.05
			}
			row[j] = pop[j] * m * outRng.LogNormal(0, 0.25)
			sum += row[j]
		}
		for j := range row {
			row[j] = row[j] / sum * ant.Volume
		}
		ant.fillShapeTraffic(row)
		ds.Outdoor = append(ds.Outdoor, ant)
	}
	shareGrids(ds)

	return ds
}

// shareGrids points every antenna at the lazy weight grid of its
// (template, event schedule) pair. Schedules are drawn per site, so every
// antenna of a venue site shares the site's grid, and every antenna
// without events shares its template's grid.
func shareGrids(ds *Dataset) {
	type key struct {
		template *temporal.Template
		site     int // -1 for the schedule with no events
	}
	grids := map[key]*weightGrid{}
	for _, ants := range [][]*Antenna{ds.Indoor, ds.Outdoor} {
		for _, a := range ants {
			k := key{a.template, -1}
			if len(a.events) > 0 {
				k.site = a.Site
			}
			g := grids[k]
			if g == nil {
				g = &weightGrid{template: a.template, events: a.events}
				grids[k] = g
			}
			a.grid = g
		}
	}
}

func upper(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'a' && c <= 'z' {
			b[i] = c - 'a' + 'A'
		}
	}
	return string(b)
}

// attachSignatureEvents wires the two landmark events the paper calls out.
func attachSignatureEvents(ds *Dataset, cal *temporal.Calendar) {
	jan19 := cal.StrikeDay()
	var nbaDone, sirhaDone bool
	for _, ant := range ds.Indoor {
		if !nbaDone && ant.Env == envmodel.Stadium && ant.Paris && ant.Archetype == 8 {
			markSite(ds, ant.Site, temporal.Event{
				FirstDay: jan19, LastDay: jan19,
				StartHour: 19, EndHour: 23,
				Intensity: 45, Label: "nba-paris",
			})
			nbaDone = true
		}
		if !sirhaDone && ant.Env == envmodel.Expo && ant.City == "Lyon" && ant.Archetype == 5 {
			markSite(ds, ant.Site, temporal.Event{
				FirstDay: jan19, LastDay: min(jan19+5, cal.Days()-1),
				StartHour: 9, EndHour: 19,
				Intensity: 18, Label: "sirha-lyon",
			})
			sirhaDone = true
		}
		if nbaDone && sirhaDone {
			break
		}
	}
}

func markSite(ds *Dataset, site int, ev temporal.Event) {
	for _, ant := range ds.Indoor {
		if ant.Site == site {
			ant.events = append(ant.events, ev)
		}
	}
}

func (a *Antenna) fillShapeTraffic(row []float64) {
	for s := range a.shapeTraffic {
		a.shapeTraffic[s] = 0
	}
	for j, v := range row {
		a.shapeTraffic[services.Get(j).Shape] += v
	}
}

// weightGrid caches the hour-resolved factors of shapeWeight (the scalar
// reference in synth_test.go) for one (template, event schedule) pair, so
// the hourly series derivations stop re-walking the template and event
// schedule per (hour, shape) evaluation. One grid serves every antenna
// with that pair: a dataset builds at most one grid per distinct pair (23
// at seed 1 and scale 0.25, 71 at full scale), each two hours-long float64
// envelopes and the shape sums, however many antennas read it.
// shapeWeight factors as
//
//	envelope(day, h | surge shift) × ShapeModifier(s, hourOfDay, weekend)
//
// and only the post-event shape shifts the envelope's event sampling, so
// two envelope rows (normal and surge-shifted) plus the shared 9×24×2
// modifier table reconstruct every shapeWeight value with the exact
// operations of the scalar form — same template lookup, same event
// accumulation order, same final multiply — keeping the series
// bit-identical. Without events the surge shift changes nothing, so the
// two rows are one slice.
type weightGrid struct {
	template *temporal.Template
	events   []temporal.Event

	once sync.Once
	// normal[t] is template weight + active event intensities at absolute
	// hour t; post[t] samples the events two hours earlier (the Waze
	// surge shift) while keeping the template weight at t.
	normal, post []float64
	// sums holds shapeWeightSums, accumulated in the reference day→h→s
	// order from grid values.
	sums [numShapes]float64
}

// shapeMod[s][h][w] tabulates temporal.ShapeModifier(s, h, weekend w); it
// depends on no antenna, so every grid reads the one table.
var shapeMod = func() (mod [numShapes][24][2]float64) {
	for s := 0; s < numShapes; s++ {
		for h := 0; h < 24; h++ {
			mod[s][h][0] = temporal.ShapeModifier(services.TemporalShape(s), h, false)
			mod[s][h][1] = temporal.ShapeModifier(services.TemporalShape(s), h, true)
		}
	}
	return mod
}()

// envelopeAt returns the venue envelope — template weight at (day,
// hourOfDay) plus the intensities of events active at (evDay, evHour) —
// accumulated in schedule order, exactly as shapeWeight does.
func (g *weightGrid) envelopeAt(cal *temporal.Calendar, day, hourOfDay, evDay, evHour int) float64 {
	w := g.template.Weight(cal, day, hourOfDay)
	for _, ev := range g.events {
		if ev.Active(evDay, evHour) {
			w += ev.Intensity
		}
	}
	return w
}

// built returns g with its rows filled, building them on first use. Safe
// for concurrent callers; the pipeline's temporal fan-out reaches one
// grid from several workers through the antennas that share it.
func (g *weightGrid) built(cal *temporal.Calendar) *weightGrid {
	g.once.Do(func() {
		hours := cal.Hours()
		g.normal = make([]float64, hours)
		g.post = g.normal
		if len(g.events) > 0 {
			g.post = make([]float64, hours)
		}
		for day := 0; day < cal.Days(); day++ {
			for h := 0; h < 24; h++ {
				t := day*24 + h
				g.normal[t] = g.envelopeAt(cal, day, h, day, h)
				if len(g.events) == 0 {
					continue
				}
				surgeDay, surgeHour := day, h-2
				if surgeHour < 0 {
					surgeHour += 24
					surgeDay--
				}
				g.post[t] = g.envelopeAt(cal, day, h, surgeDay, surgeHour)
			}
		}
		// Accumulate the normalization sums in the reference order
		// (day → hour → shape) so they match shapeWeightSums bit-for-bit.
		for day := 0; day < cal.Days(); day++ {
			we := 0
			if cal.IsWeekend(day) {
				we = 1
			}
			for h := 0; h < 24; h++ {
				t := day*24 + h
				for s := 0; s < numShapes; s++ {
					g.sums[s] += g.at(t, h, we, services.TemporalShape(s))
				}
			}
		}
	})
	return g
}

// at reconstructs shapeWeight from the grid: envelope × modifier.
func (g *weightGrid) at(t, hourOfDay, weekend int, s services.TemporalShape) float64 {
	base := g.normal[t]
	if s == services.ShapePostEvent {
		base = g.post[t]
	}
	return base * shapeMod[s][hourOfDay][weekend]
}

// HourlyTotals returns the antenna's total traffic per absolute hour of the
// calendar. The series sums to the antenna's total traffic in the dataset
// matrix (up to floating-point rounding).
func (d *Dataset) HourlyTotals(a *Antenna) []float64 {
	g := a.grid.built(d.Cal)
	out := make([]float64, d.Cal.Hours())
	for day := 0; day < d.Cal.Days(); day++ {
		we := 0
		if d.Cal.IsWeekend(day) {
			we = 1
		}
		for h := 0; h < 24; h++ {
			t := day*24 + h
			var v float64
			for s := 0; s < numShapes; s++ {
				if g.sums[s] == 0 {
					continue
				}
				v += a.shapeTraffic[s] * g.at(t, h, we, services.TemporalShape(s)) / g.sums[s]
			}
			out[t] = v
		}
	}
	return out
}

// HourlyTotalsRow returns the antenna's total traffic per absolute hour
// of the calendar derived from an explicit per-service traffic row rather
// than the generation-time totals. For the antenna's own generated row it
// is bit-identical to HourlyTotals (the shape totals are accumulated in
// the same service order fillShapeTraffic uses); with a refreshed row it
// yields the hourly series implied by the live traffic matrix, which is
// what keeps warm-refreshed forecasts fresh.
func (d *Dataset) HourlyTotalsRow(a *Antenna, row []float64) []float64 {
	var shapeTraffic [numShapes]float64
	for j, v := range row {
		shapeTraffic[services.Get(j).Shape] += v
	}
	g := a.grid.built(d.Cal)
	out := make([]float64, d.Cal.Hours())
	for day := 0; day < d.Cal.Days(); day++ {
		we := 0
		if d.Cal.IsWeekend(day) {
			we = 1
		}
		for h := 0; h < 24; h++ {
			t := day*24 + h
			var v float64
			for s := 0; s < numShapes; s++ {
				if g.sums[s] == 0 {
					continue
				}
				v += shapeTraffic[s] * g.at(t, h, we, services.TemporalShape(s)) / g.sums[s]
			}
			out[t] = v
		}
	}
	return out
}

// HourlyService returns the hourly series of one service at the antenna.
// The series sums to the corresponding T matrix cell.
func (d *Dataset) HourlyService(a *Antenna, serviceID int) []float64 {
	var total float64
	if a.Outdoor {
		total = d.OutdoorTraffic.At(a.ID, serviceID)
	} else {
		total = d.Traffic.At(a.ID, serviceID)
	}
	shape := services.Get(serviceID).Shape
	g := a.grid.built(d.Cal)
	out := make([]float64, d.Cal.Hours())
	if g.sums[shape] == 0 {
		return out
	}
	for day := 0; day < d.Cal.Days(); day++ {
		we := 0
		if d.Cal.IsWeekend(day) {
			we = 1
		}
		for h := 0; h < 24; h++ {
			t := day*24 + h
			out[t] = total * g.at(t, h, we, shape) / g.sums[shape]
		}
	}
	return out
}

// IndoorLocations returns the coordinates of every indoor antenna in ID
// order, for spatial indexing.
func (d *Dataset) IndoorLocations() []geo.Point {
	pts := make([]geo.Point, len(d.Indoor))
	for i, a := range d.Indoor {
		pts[i] = a.Location
	}
	return pts
}

// OutdoorLocations returns the coordinates of every outdoor antenna.
func (d *Dataset) OutdoorLocations() []geo.Point {
	pts := make([]geo.Point, len(d.Outdoor))
	for i, a := range d.Outdoor {
		pts[i] = a.Location
	}
	return pts
}

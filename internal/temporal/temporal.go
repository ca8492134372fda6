// Package temporal models the time dimension of the study: the measurement
// calendar (2022-11-21 through 2023-01-24, as in Section 3), weekly
// hour-of-day activity templates for each kind of indoor environment, the
// 2023-01-19 national strike day, and the per-service temporal shapes
// behind the Figure 11 analysis.
package temporal

import (
	"fmt"
	"time"

	"repro/internal/services"
)

// Calendar describes the paper's recording period at hourly resolution.
// Day 0 is Monday 2022-11-21; the last day is Tuesday 2023-01-24.
type Calendar struct {
	start time.Time
	days  int
	// strike, first and last are the fixed day indices StrikeDay and
	// AnalysisWindow return, resolved once: the weight templates ask for
	// the strike day on every (day, hour) of every antenna.
	strike, first, last int
}

// NewCalendar returns the paper's two-month measurement calendar.
func NewCalendar() *Calendar {
	c := &Calendar{
		start: time.Date(2022, 11, 21, 0, 0, 0, 0, time.UTC),
		days:  65,
	}
	c.strike = c.DayIndex(2023, time.January, 19)
	c.first = c.DayIndex(2023, time.January, 4)
	c.last = c.DayIndex(2023, time.January, 24)
	return c
}

// Days returns the number of days covered (65).
func (c *Calendar) Days() int { return c.days }

// Hours returns the number of hourly bins covered (65 × 24).
func (c *Calendar) Hours() int { return c.days * 24 }

// DayOfHour returns the day index of an absolute hour index.
func (c *Calendar) DayOfHour(h int) int { return h / 24 }

// HourOfDay returns the hour-of-day (0-23) of an absolute hour index.
func (c *Calendar) HourOfDay(h int) int { return h % 24 }

// Weekday returns the weekday of a day index, with 0 = Monday.
func (c *Calendar) Weekday(day int) int { return day % 7 }

// IsWeekend reports whether the day index is a Saturday or Sunday.
func (c *Calendar) IsWeekend(day int) bool {
	w := c.Weekday(day)
	return w == 5 || w == 6
}

// Date returns the civil date of a day index.
func (c *Calendar) Date(day int) time.Time {
	return c.start.AddDate(0, 0, day)
}

// DateString formats a day index as YYYY-MM-DD.
func (c *Calendar) DateString(day int) string {
	return c.Date(day).Format("2006-01-02")
}

// DayIndex returns the day index of a civil date, or -1 when outside the
// recording period.
func (c *Calendar) DayIndex(year int, month time.Month, day int) int {
	d := time.Date(year, month, day, 0, 0, 0, 0, time.UTC)
	idx := int(d.Sub(c.start).Hours() / 24)
	if idx < 0 || idx >= c.days {
		return -1
	}
	return idx
}

// StrikeDay returns the day index of the 2023-01-19 national general
// strike, which Section 6 identifies as a near-zero-traffic day for the
// commuter clusters.
func (c *Calendar) StrikeDay() int { return c.strike }

// AnalysisWindow returns the [first, last] day indices of the temporal
// figures (2023-01-04 through 2023-01-24, Figs. 10-11).
func (c *Calendar) AnalysisWindow() (first, last int) { return c.first, c.last }

// Template is a weekly activity envelope: 168 non-negative hourly weights,
// hour 0 = Monday 00:00. Values are relative intensities, not absolute
// traffic.
type Template struct {
	Name string
	// Week holds the hour-of-week weights.
	Week [168]float64
	// StrikeFactor scales weekday activity on the national strike day;
	// ~0.1 for Parisian commuter templates, closer to 1 for environments
	// the strike barely touched.
	StrikeFactor float64
	// EventDriven marks venues whose traffic exists mostly during
	// scheduled events (stadiums, expo centers).
	EventDriven bool
	// Baseline is the off-event floor for event-driven templates.
	Baseline float64
}

// hourRange sets [from, to) hours of a day to v.
type hourRange struct {
	from, to int
	v        float64
}

func buildWeek(weekday, weekend []hourRange, weekdayBase, weekendBase float64) [168]float64 {
	var w [168]float64
	for d := 0; d < 7; d++ {
		base := weekdayBase
		ranges := weekday
		if d == 5 || d == 6 {
			base = weekendBase
			ranges = weekend
		}
		for h := 0; h < 24; h++ {
			w[d*24+h] = base
		}
		for _, r := range ranges {
			for h := r.from; h < r.to; h++ {
				w[d*24+h] = r.v
			}
		}
	}
	return w
}

// templates is the registry of activity envelopes keyed by the archetype
// template names used in envmodel.
var templates = map[string]*Template{}

func register(t *Template) {
	if _, dup := templates[t.Name]; dup {
		//lint:allow nopanic init-time registration of compiled-in templates
		panic("temporal: duplicate template " + t.Name)
	}
	templates[t.Name] = t
}

func init() {
	// Metro/train commute: sharp 7:30-9:30 and 17:30-19:30 weekday peaks
	// (Section 6), light weekends, deep strike impact in Paris.
	register(&Template{
		Name: "commute",
		Week: buildWeek(
			[]hourRange{
				{6, 7, 0.45}, {7, 10, 1.0}, {10, 16, 0.35},
				{16, 17, 0.5}, {17, 20, 0.95}, {20, 23, 0.25},
			},
			[]hourRange{{9, 21, 0.3}},
			0.06, 0.05,
		),
		StrikeFactor: 0.12,
	})

	// Regional metro: same rhythm, milder strike impact (the paper notes
	// the strike hit cluster 7 less severely).
	regional := &Template{
		Name:         "commute-regional",
		StrikeFactor: 0.55,
	}
	regional.Week = templates["commute"].Week
	register(regional)

	// Office: 9:00-17:30 weekdays with a lunch plateau, idle weekends and
	// evenings (cluster 3's unique signature).
	register(&Template{
		Name: "office",
		Week: buildWeek(
			[]hourRange{
				{8, 9, 0.55}, {9, 12, 1.0}, {12, 13, 0.75},
				{13, 18, 0.95}, {18, 20, 0.25},
			},
			[]hourRange{{10, 17, 0.07}},
			0.05, 0.04,
		),
		StrikeFactor: 0.6,
	})

	// General-use diurnal: even 10:00-20:00 activity on every day of the
	// week (clusters 1), with a Saturday shopping/driving bump.
	diurnal := &Template{
		Name: "diurnal",
		Week: buildWeek(
			[]hourRange{{8, 10, 0.55}, {10, 20, 1.0}, {20, 23, 0.45}},
			[]hourRange{{9, 21, 1.0}, {21, 23, 0.4}},
			0.12, 0.12,
		),
		StrikeFactor: 0.85,
	}
	// Saturday bump (weekend day index 5).
	for h := 9; h < 21; h++ {
		diurnal.Week[5*24+h] *= 1.15
	}
	register(diurnal)

	// Retail with night floor: like diurnal but a Sunday dip and elevated
	// night activity from hotels and hospitals (cluster 2).
	retail := &Template{
		Name: "retail-night",
		Week: buildWeek(
			[]hourRange{{9, 20, 1.0}, {20, 24, 0.5}},
			[]hourRange{{9, 20, 0.95}, {20, 24, 0.5}},
			0.3, 0.3,
		),
		StrikeFactor: 0.85,
	}
	for h := 0; h < 24; h++ {
		retail.Week[6*24+h] *= 0.7 // Sunday dip: smaller stores closed
	}
	register(retail)

	// Event venues: negligible baseline, traffic only when events run.
	register(&Template{
		Name:         "event",
		Week:         buildWeek(nil, nil, 1.0, 1.0),
		StrikeFactor: 1.0,
		EventDriven:  true,
		Baseline:     0.05,
	})

	// Low-intensity venues (cluster 5): flat moderate floor with milder
	// event response.
	register(&Template{
		Name:         "event-quiet",
		Week:         buildWeek(nil, nil, 1.0, 1.0),
		StrikeFactor: 1.0,
		EventDriven:  true,
		Baseline:     0.2,
	})
}

// ByName returns the named template. It panics on unknown names, which
// would indicate an archetype/template wiring bug.
func ByName(name string) *Template {
	t, ok := templates[name]
	if !ok {
		//lint:allow nopanic template names are compiled into the archetype table
		panic(fmt.Sprintf("temporal: unknown template %q", name))
	}
	return t
}

// TemplateNames returns the registered template names (unordered).
func TemplateNames() []string {
	out := make([]string, 0, len(templates))
	for n := range templates {
		out = append(out, n)
	}
	return out
}

// Weight returns the template's relative activity at the given calendar
// position, folding in weekday/weekend structure and the strike day.
// Event-driven templates return their baseline here; event surges are
// applied by the generator via the Event schedule.
func (t *Template) Weight(cal *Calendar, day, hourOfDay int) float64 {
	w := t.Week[cal.Weekday(day)*24+hourOfDay]
	if t.EventDriven {
		w *= t.Baseline
	}
	if day == cal.StrikeDay() && !cal.IsWeekend(day) {
		w *= t.StrikeFactor
	}
	return w
}

// Event is a scheduled gathering at a venue: an inclusive day span with an
// hour span per day and an intensity multiplier relative to the venue's
// nominal volume.
type Event struct {
	FirstDay, LastDay  int
	StartHour, EndHour int // [StartHour, EndHour) each day
	Intensity          float64
	Label              string
}

// Active reports whether the event is in progress at (day, hourOfDay).
func (e Event) Active(day, hourOfDay int) bool {
	return day >= e.FirstDay && day <= e.LastDay &&
		hourOfDay >= e.StartHour && hourOfDay < e.EndHour
}

// ShapeModifier returns the multiplicative factor a service's intrinsic
// temporal shape applies at the given hour, implementing the per-service
// patterns of Fig. 11 (Teams peaks in office hours, Netflix in the
// evening, Waze a couple of hours after event peaks, ...).
func ShapeModifier(shape services.TemporalShape, hourOfDay int, weekend bool) float64 {
	switch shape {
	case services.ShapeCommute:
		if weekend {
			return 0.7
		}
		switch {
		case hourOfDay >= 7 && hourOfDay < 10:
			return 1.9
		case hourOfDay >= 17 && hourOfDay < 20:
			return 1.7
		default:
			return 0.7
		}
	case services.ShapeWorkHours:
		if weekend {
			return 0.35
		}
		switch {
		case hourOfDay >= 9 && hourOfDay < 12:
			return 1.8
		case hourOfDay == 12:
			return 1.3
		case hourOfDay >= 13 && hourOfDay < 18:
			return 1.7
		default:
			return 0.4
		}
	case services.ShapeEvening:
		switch {
		case hourOfDay >= 19 && hourOfDay < 23:
			return 1.9
		case hourOfDay >= 12 && hourOfDay < 14:
			return 1.2 // lunch-break streaming
		default:
			return 0.6
		}
	case services.ShapeNight:
		if hourOfDay >= 22 || hourOfDay < 6 {
			return 2.2
		}
		return 0.7
	case services.ShapePostEvent:
		// The generator shifts venue peaks; outside venues this behaves
		// like a late-evening bias (driving home).
		switch {
		case hourOfDay >= 16 && hourOfDay < 21:
			return 1.5
		case hourOfDay >= 21 && hourOfDay < 24:
			return 1.2
		default:
			return 0.7
		}
	default: // ShapeFlat
		return 1.0
	}
}

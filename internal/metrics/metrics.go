// Package metrics collects the daily time series behind the paper's
// Figures 3–6 and renders them as aligned tables and ASCII charts. All the
// evaluation figures are per-day aggregates over the rollout calendar, so
// one Daily collector covers them all.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Daily is a set of named per-day series sharing one calendar.
type Daily struct {
	Start  time.Time // midnight UTC of day 0
	Days   int
	series map[string][]float64
}

// NewDaily creates a collector spanning [start, end] inclusive.
func NewDaily(start, end time.Time) *Daily {
	start = midnight(start)
	days := int(midnight(end).Sub(start).Hours()/24) + 1
	if days < 1 {
		days = 1
	}
	return &Daily{Start: start, Days: days, series: make(map[string][]float64)}
}

func midnight(t time.Time) time.Time {
	return time.Date(t.Year(), t.Month(), t.Day(), 0, 0, 0, 0, time.UTC)
}

// DayIndex maps a timestamp to its day offset, clamped to the calendar.
func (d *Daily) DayIndex(t time.Time) int {
	idx, _ := d.day(t)
	return min(max(idx, 0), d.Days-1)
}

// day maps a timestamp to its day offset and reports whether the offset
// is inside the calendar.
func (d *Daily) day(t time.Time) (int, bool) {
	idx := int(midnight(t).Sub(d.Start).Hours() / 24)
	return idx, idx >= 0 && idx < d.Days
}

// Date returns the calendar date of a day index.
func (d *Daily) Date(idx int) time.Time {
	return d.Start.AddDate(0, 0, idx)
}

func (d *Daily) row(name string) []float64 {
	s, ok := d.series[name]
	if !ok {
		s = make([]float64, d.Days)
		d.series[name] = s
	}
	return s
}

// Add accumulates v into series name on the day containing t. A date
// outside the calendar changes nothing and reports false.
func (d *Daily) Add(t time.Time, name string, v float64) bool {
	idx, ok := d.day(t)
	if ok {
		d.row(name)[idx] += v
	}
	return ok
}

// Set overwrites the value for the day containing t. A date outside the
// calendar changes nothing and reports false.
func (d *Daily) Set(t time.Time, name string, v float64) bool {
	idx, ok := d.day(t)
	if ok {
		d.row(name)[idx] = v
	}
	return ok
}

// Get reads one day's value; a date outside the calendar reads 0, false.
func (d *Daily) Get(t time.Time, name string) (float64, bool) {
	idx, ok := d.day(t)
	if !ok {
		return 0, false
	}
	return d.row(name)[idx], true
}

// Series returns a copy of the named series (zeros if absent).
func (d *Daily) Series(name string) []float64 {
	out := make([]float64, d.Days)
	copy(out, d.row(name))
	return out
}

// Names lists defined series, sorted.
func (d *Daily) Names() []string {
	var out []string
	for k := range d.series {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Sum totals a series.
func (d *Daily) Sum(name string) float64 {
	var s float64
	for _, v := range d.row(name) {
		s += v
	}
	return s
}

// SumRange totals a series over [from, to] inclusive.
func (d *Daily) SumRange(name string, from, to time.Time) float64 {
	s := d.row(name)
	var out float64
	for i := d.DayIndex(from); i <= d.DayIndex(to); i++ {
		out += s[i]
	}
	return out
}

// Max returns the peak value and its day index.
func (d *Daily) Max(name string) (float64, int) {
	best, bestIdx := math.Inf(-1), -1
	for i, v := range d.row(name) {
		if v > best {
			best, bestIdx = v, i
		}
	}
	return best, bestIdx
}

// Rank returns the 1-based rank of the given date's value within the
// series (1 = largest).
func (d *Daily) Rank(name string, t time.Time) int {
	s := d.row(name)
	v := s[d.DayIndex(t)]
	rank := 1
	for _, x := range s {
		if x > v {
			rank++
		}
	}
	return rank
}

// Table renders the listed series as an aligned per-day table.
func (d *Daily) Table(names ...string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s", "date")
	for _, n := range names {
		fmt.Fprintf(&sb, " %14s", n)
	}
	sb.WriteByte('\n')
	for i := 0; i < d.Days; i++ {
		fmt.Fprintf(&sb, "%-12s", d.Date(i).Format("2006-01-02"))
		for _, n := range names {
			fmt.Fprintf(&sb, " %14.1f", d.row(n)[i])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Chart renders an ASCII bar chart of one series, height rows tall,
// bucketing days into at most width columns.
func (d *Daily) Chart(name string, width, height int) string {
	if width < 1 || height < 1 {
		return ""
	}
	s := d.row(name)
	cols := width
	if cols > d.Days {
		cols = d.Days
	}
	bucket := make([]float64, cols)
	per := float64(d.Days) / float64(cols)
	for i, v := range s {
		b := int(float64(i) / per)
		if b >= cols {
			b = cols - 1
		}
		bucket[b] += v
	}
	maxV := 0.0
	for _, v := range bucket {
		if v > maxV {
			maxV = v
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s (max bucket %.0f, %d days/col)\n", name, maxV, int(math.Ceil(per)))
	for row := height; row >= 1; row-- {
		thresh := maxV * float64(row) / float64(height)
		for _, v := range bucket {
			if maxV > 0 && v >= thresh {
				sb.WriteByte('#')
			} else {
				sb.WriteByte(' ')
			}
		}
		sb.WriteByte('\n')
	}
	sb.WriteString(strings.Repeat("-", cols) + "\n")
	return sb.String()
}

// Breakdown is a category→percentage table (the shape of Table 1).
type Breakdown struct {
	Title string
	Rows  []BreakdownRow
}

// BreakdownRow is one category line.
type BreakdownRow struct {
	Label   string
	Percent float64
}

// NewBreakdown converts raw counts into sorted percentage rows.
func NewBreakdown(title string, counts map[string]int) Breakdown {
	total := 0
	for _, c := range counts {
		total += c
	}
	b := Breakdown{Title: title}
	for label, c := range counts {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(c) / float64(total)
		}
		b.Rows = append(b.Rows, BreakdownRow{Label: label, Percent: pct})
	}
	// Equal percentages tie-break by label: map iteration order would
	// otherwise make the row order (and every rendered table) flap
	// between runs.
	sort.Slice(b.Rows, func(i, j int) bool {
		if b.Rows[i].Percent != b.Rows[j].Percent {
			return b.Rows[i].Percent > b.Rows[j].Percent
		}
		return b.Rows[i].Label < b.Rows[j].Label
	})
	return b
}

// Percent returns the percentage for a label (0 if absent).
func (b Breakdown) Percent(label string) float64 {
	for _, r := range b.Rows {
		if r.Label == label {
			return r.Percent
		}
	}
	return 0
}

// String renders the breakdown as the paper's two-column table.
func (b Breakdown) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n%-28s %12s\n", b.Title, "Category", "Breakdown (%)")
	for _, r := range b.Rows {
		fmt.Fprintf(&sb, "%-28s %12.2f\n", r.Label, r.Percent)
	}
	return sb.String()
}

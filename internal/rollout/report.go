package rollout

import (
	"fmt"
	"strings"
	"time"
)

// d parses a calendar date; panics on bad literals (programmer error).
func d(s string) time.Time {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		panic(err)
	}
	return t
}

// phaseLegend describes the transition calendar for the figure headers.
func (r *Result) phaseLegend() string {
	return fmt.Sprintf("phase 1 (paired, opt-in) %s | phase 2 (countdown) %s | phase 3 (mandatory) %s",
		r.Config.Announce.Format("2006-01-02"),
		r.Config.Phase2.Format("2006-01-02"),
		r.Config.Phase3.Format("2006-01-02"))
}

// Figure3 renders the unique-MFA-users series with a chart and the
// paper-vs-measured claims.
func (r *Result) Figure3() string {
	m := r.Metrics
	var sb strings.Builder
	sb.WriteString("Figure 3: Number of unique MFA users broken down by day\n")
	sb.WriteString(r.phaseLegend() + "\n\n")
	sb.WriteString(m.Chart(SeriesUniqueMFAUsers, 80, 12))
	pre := r.weekdayMeanRange(SeriesUniqueMFAUsers, "2016-08-29", "2016-09-05")
	post := r.weekdayMeanRange(SeriesUniqueMFAUsers, "2016-09-07", "2016-09-16")
	nov := r.weekdayMeanRange(SeriesUniqueMFAUsers, "2016-11-01", "2016-11-30")
	holiday := r.weekdayMeanRange(SeriesUniqueMFAUsers, "2016-12-19", "2016-12-30")
	fmt.Fprintf(&sb, "\npaper: steady increase through phases 1-2; discontinuous increase on 09-07; winter-holiday decline\n")
	fmt.Fprintf(&sb, "measured: pre-phase-2 weekday mean %.1f -> post %.1f (x%.2f); November %.1f -> holiday %.1f (x%.2f)\n",
		pre, post, post/pre, nov, holiday, holiday/nov)
	return sb.String()
}

// Figure4 renders the traffic mix.
func (r *Result) Figure4() string {
	var sb strings.Builder
	sb.WriteString("Figure 4: SSH traffic broken down by day\n")
	sb.WriteString("black=all traffic, red=external, blue=external using MFA\n")
	sb.WriteString(r.phaseLegend() + "\n\n")
	sb.WriteString(r.Metrics.Chart(SeriesTrafficAll, 80, 8))
	sb.WriteString(r.Metrics.Chart(SeriesTrafficExternal, 80, 8))
	sb.WriteString(r.Metrics.Chart(SeriesTrafficExtMFA, 80, 8))
	nm := func(from, to string) float64 {
		return r.weekdayMeanRange(SeriesTrafficExternal, from, to) -
			r.weekdayMeanRange(SeriesTrafficExtMFA, from, to)
	}
	before := nm("2016-08-22", "2016-09-05")
	after := nm("2016-09-07", "2016-09-23")
	phase3 := nm("2016-10-10", "2016-11-10")
	fmt.Fprintf(&sb, "\npaper: significant decrease in external non-MFA traffic once phase 2 began; automated traffic still significant in phase 3\n")
	fmt.Fprintf(&sb, "measured: external non-MFA weekday mean %.0f/day -> %.0f/day after phase 2 (x%.2f); phase 3 residual %.0f/day\n",
		before, after, after/before, phase3)
	return sb.String()
}

// Figure5 renders the ticket series and shares.
func (r *Result) Figure5() string {
	var sb strings.Builder
	sb.WriteString("Figure 5: Number of user support ticket inquiries broken down by day\n")
	sb.WriteString(r.phaseLegend() + "\n\n")
	sb.WriteString(r.Metrics.Chart(SeriesTicketsTotal, 80, 8))
	sb.WriteString(r.Metrics.Chart(SeriesTicketsMFA, 80, 8))
	tr, st := r.TicketShares()
	fmt.Fprintf(&sb, "\npaper: MFA inquiries averaged 6.7%% of tickets Aug-Dec 2016 and 2.7%% Jan-Mar 2017\n")
	fmt.Fprintf(&sb, "measured: %.1f%% Aug-Dec 2016, %.1f%% Jan-Mar 2017\n", tr, st)
	return sb.String()
}

// TicketShares returns the measured MFA ticket shares (percent) for the
// paper's two reporting windows.
func (r *Result) TicketShares() (transition, steady float64) {
	m := r.Metrics
	share := func(from, to time.Time) float64 {
		tot := m.SumRange(SeriesTicketsTotal, from, to)
		if tot == 0 {
			return 0
		}
		return 100 * m.SumRange(SeriesTicketsMFA, from, to) / tot
	}
	return share(r.Config.Announce, d("2016-12-31")),
		share(d("2017-01-01"), d("2017-03-31"))
}

// Figure6 renders the new-pairings series and the spike ranking.
func (r *Result) Figure6() string {
	m := r.Metrics
	var sb strings.Builder
	sb.WriteString("Figure 6: Number of new token pairings broken down by day\n")
	sb.WriteString(r.phaseLegend() + "\n\n")
	sb.WriteString(m.Chart(SeriesPairingsNew, 80, 12))
	fmt.Fprintf(&sb, "\npaper: 09-07 ranks 1st in new pairings; 10-04 ranks 4th; spikes at announcements/phase changes\n")
	// The series total shows one lost enrolment on any day, which the
	// chart's 4-day columns and the four dates above cannot.
	fmt.Fprintf(&sb, "measured: 08-10=%g 09-06=%g 09-07=%g (rank %d) 10-04=%g (rank %d) total=%g\n",
		r.at(d("2016-08-10"), SeriesPairingsNew),
		r.at(d("2016-09-06"), SeriesPairingsNew),
		r.at(d("2016-09-07"), SeriesPairingsNew),
		m.Rank(SeriesPairingsNew, d("2016-09-07")),
		r.at(d("2016-10-04"), SeriesPairingsNew),
		m.Rank(SeriesPairingsNew, d("2016-10-04")),
		m.Sum(SeriesPairingsNew))
	return sb.String()
}

// Table1Report renders the pairing mix against the paper's numbers.
func (r *Result) Table1Report() string {
	var sb strings.Builder
	sb.WriteString("Table 1: Percentage breakdown of current token device pairing types\n\n")
	paper := map[string]float64{"soft": 55.38, "sms": 40.22, "training": 2.97, "hard": 1.43}
	fmt.Fprintf(&sb, "%-12s %10s %10s\n", "Type", "paper (%)", "measured")
	for _, label := range []string{"soft", "sms", "training", "hard"} {
		fmt.Fprintf(&sb, "%-12s %10.2f %10.2f\n", label, paper[label], r.Table1.Percent(label))
	}
	return sb.String()
}

// CostReport estimates the §3.3 Twilio spend for the simulated window.
func (r *Result) CostReport() string {
	months := monthsBetween(r.Config.Start, r.Config.End)
	perMsg := 0.0075
	total := float64(months)*1.0 + float64(r.SMSMessages)*perMsg
	return fmt.Sprintf(
		"SMS cost model (§3.3: $1/month + $0.0075 per US message)\n"+
			"months=%d messages=%d -> $%.2f for the simulated window\n",
		months, r.SMSMessages, total)
}

func monthsBetween(a, b time.Time) int {
	return int(b.Month()) - int(a.Month()) + 12*(b.Year()-a.Year()) + 1
}

// Summary is the §4.1 analysis headline plus run totals.
func (r *Result) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "rollout: %d users, %s - %s, seed %d\n",
		r.Config.Users, r.Config.Start.Format("2006-01-02"),
		r.Config.End.Format("2006-01-02"), r.Config.Seed)
	fmt.Fprintf(&sb, "successful logins: %d (%d via MFA); SMS messages: %d\n",
		r.TotalLogins, r.MFALogins, r.SMSMessages)
	fmt.Fprintf(&sb, "non-TTY login share (§4.1): %.0f%%\n", 100*r.Analysis.NonTTYShare())
	return sb.String()
}

// at reads one day of a series; a date outside the calendar reads 0.
func (r *Result) at(date time.Time, series string) float64 {
	v, _ := r.Metrics.Get(date, series)
	return v
}

func (r *Result) weekdayMeanRange(series, from, to string) float64 {
	m := r.Metrics
	sum, n := 0.0, 0
	for i := m.DayIndex(d(from)); i <= m.DayIndex(d(to)); i++ {
		date := m.Date(i)
		if date.Weekday() == time.Saturday || date.Weekday() == time.Sunday {
			continue
		}
		sum += r.at(date, series)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// ExperimentsMarkdown renders the whole paper-vs-measured record, the body
// of EXPERIMENTS.md.
func (r *Result) ExperimentsMarkdown() string {
	m := r.Metrics
	pre := r.weekdayMeanRange(SeriesUniqueMFAUsers, "2016-08-29", "2016-09-05")
	post := r.weekdayMeanRange(SeriesUniqueMFAUsers, "2016-09-07", "2016-09-16")
	nov := r.weekdayMeanRange(SeriesUniqueMFAUsers, "2016-11-01", "2016-11-30")
	holiday := r.weekdayMeanRange(SeriesUniqueMFAUsers, "2016-12-19", "2016-12-30")
	nm := func(from, to string) float64 {
		return r.weekdayMeanRange(SeriesTrafficExternal, from, to) -
			r.weekdayMeanRange(SeriesTrafficExtMFA, from, to)
	}
	before, after := nm("2016-08-22", "2016-09-05"), nm("2016-09-07", "2016-09-23")
	tr, st := r.TicketShares()

	var sb strings.Builder
	fmt.Fprintf(&sb, "Run: %d users, %s to %s, seed %d. Regenerate with `go run ./cmd/rollout -all`.\n\n",
		r.Config.Users, r.Config.Start.Format("2006-01-02"), r.Config.End.Format("2006-01-02"), r.Config.Seed)
	sb.WriteString("| Experiment | Paper | Measured | Verdict |\n|---|---|---|---|\n")
	fmt.Fprintf(&sb, "| Fig 3: adoption rises through phases 1–2 | monotone increase | weekday means %.1f → %.1f (pre→post phase 2) | %s |\n",
		pre, post, verdict(post > pre))
	fmt.Fprintf(&sb, "| Fig 3: discontinuity on 2016-09-07 | \"noticeable discontinuous increase\" | ×%.2f jump across phase-2 start | %s |\n",
		post/pre, verdict(post > 1.3*pre))
	fmt.Fprintf(&sb, "| Fig 3: winter-holiday decline | visible dip | November %.1f → holiday %.1f (×%.2f) | %s |\n",
		nov, holiday, holiday/nov, verdict(holiday < 0.7*nov))
	fmt.Fprintf(&sb, "| Fig 4: external non-MFA drop at phase 2 | \"significant decrease\" | %.0f/day → %.0f/day (×%.2f) | %s |\n",
		before, after, after/before, verdict(after < 0.8*before))
	fmt.Fprintf(&sb, "| Fig 4: automated traffic persists in phase 3 | \"significant portion\" | %.0f/day exempt external in Oct–Nov | %s |\n",
		nm("2016-10-10", "2016-11-10"), verdict(nm("2016-10-10", "2016-11-10") > 0))
	fmt.Fprintf(&sb, "| Fig 5: MFA ticket share Aug–Dec | 6.7%% | %.1f%% | %s |\n", tr, verdict(tr > 4.5 && tr < 9.5))
	fmt.Fprintf(&sb, "| Fig 5: MFA ticket share Jan–Mar | 2.7%% | %.1f%% | %s |\n", st, verdict(st > 1.2 && st < 4.8))
	fmt.Fprintf(&sb, "| Fig 6: 2016-09-07 rank in new pairings | 1st | rank %d (%g pairings) | %s |\n",
		m.Rank(SeriesPairingsNew, d("2016-09-07")), r.at(d("2016-09-07"), SeriesPairingsNew),
		verdict(m.Rank(SeriesPairingsNew, d("2016-09-07")) == 1))
	fmt.Fprintf(&sb, "| Fig 6: 2016-10-04 rank in new pairings | 4th | rank %d (%g pairings) | %s |\n",
		m.Rank(SeriesPairingsNew, d("2016-10-04")), r.at(d("2016-10-04"), SeriesPairingsNew),
		verdict(m.Rank(SeriesPairingsNew, d("2016-10-04")) >= 2 && m.Rank(SeriesPairingsNew, d("2016-10-04")) <= 6))
	for _, row := range []struct {
		label string
		paper float64
	}{{"soft", 55.38}, {"sms", 40.22}, {"training", 2.97}, {"hard", 1.43}} {
		got := r.Table1.Percent(row.label)
		fmt.Fprintf(&sb, "| Table 1: %s pairing share | %.2f%% | %.2f%% | %s |\n",
			row.label, row.paper, got, verdict(got > row.paper-6 && got < row.paper+6))
	}
	fmt.Fprintf(&sb, "| §4.1: most login events non-TTY | \"far majority\" | %.0f%% non-TTY | %s |\n",
		100*r.Analysis.NonTTYShare(), verdict(r.Analysis.NonTTYShare() > 0.5))
	return sb.String()
}

func verdict(ok bool) string {
	if ok {
		return "reproduced"
	}
	return "NOT reproduced"
}

package metrics

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

var (
	start = time.Date(2016, 8, 1, 0, 0, 0, 0, time.UTC)
	end   = time.Date(2016, 8, 10, 0, 0, 0, 0, time.UTC)
)

func TestDayIndexAndDate(t *testing.T) {
	d := NewDaily(start, end)
	if d.Days != 10 {
		t.Fatalf("Days = %d, want 10", d.Days)
	}
	if d.DayIndex(start) != 0 {
		t.Fatal("day 0 wrong")
	}
	if d.DayIndex(start.Add(36*time.Hour)) != 1 {
		t.Fatal("mid-day timestamp mapped wrong")
	}
	if d.DayIndex(end.Add(23*time.Hour)) != 9 {
		t.Fatal("last day wrong")
	}
	// Clamping.
	if d.DayIndex(start.Add(-48*time.Hour)) != 0 {
		t.Fatal("pre-start not clamped")
	}
	if d.DayIndex(end.AddDate(0, 1, 0)) != 9 {
		t.Fatal("post-end not clamped")
	}
	if !d.Date(3).Equal(start.AddDate(0, 0, 3)) {
		t.Fatal("Date(3) wrong")
	}
}

// TestOutsideCalendarIsANoOp: a date outside the calendar is refused,
// not clamped onto an edge day: Set and Add report false and change
// nothing, Get reads 0, false.
func TestOutsideCalendarIsANoOp(t *testing.T) {
	d := NewDaily(start, end)
	d.Set(start, "v", 7)
	d.Set(end, "v", 9)
	before, after := start.AddDate(0, 0, -1), end.AddDate(0, 0, 1)
	if d.Set(before, "v", 1) || d.Add(before, "v", 1) {
		t.Fatal("Set/Add one day before the start reported true")
	}
	if d.Set(after, "v", 1) || d.Add(after, "v", 1) {
		t.Fatal("Set/Add one day after the end reported true")
	}
	if v, _ := d.Get(start, "v"); v != 7 {
		t.Fatalf("day 0 = %v after out-of-calendar writes, want 7", v)
	}
	if v, _ := d.Get(end, "v"); v != 9 {
		t.Fatalf("last day = %v after out-of-calendar writes, want 9", v)
	}
	if v, ok := d.Get(before, "v"); ok || v != 0 {
		t.Fatalf("Get before the start = %v, %v; want 0, false", v, ok)
	}
	if !d.Set(start, "v", 8) || !d.Add(end, "v", 1) {
		t.Fatal("Set/Add inside the calendar reported false")
	}
}

func TestAddSetGetSum(t *testing.T) {
	d := NewDaily(start, end)
	d.Add(start, "logins", 2)
	d.Add(start.Add(time.Hour), "logins", 3)
	d.Add(start.AddDate(0, 0, 1), "logins", 7)
	if got, ok := d.Get(start, "logins"); got != 5 || !ok {
		t.Fatalf("Get = %v", got)
	}
	if got := d.Sum("logins"); got != 12 {
		t.Fatalf("Sum = %v", got)
	}
	d.Set(start, "logins", 1)
	if got := d.Sum("logins"); got != 8 {
		t.Fatalf("Sum after Set = %v", got)
	}
	if got := d.SumRange("logins", start, start); got != 1 {
		t.Fatalf("SumRange = %v", got)
	}
	if got := d.Sum("absent"); got != 0 {
		t.Fatalf("absent Sum = %v", got)
	}
}

func TestMaxAndRank(t *testing.T) {
	d := NewDaily(start, end)
	d.Set(start.AddDate(0, 0, 2), "pairings", 10)
	d.Set(start.AddDate(0, 0, 5), "pairings", 100) // the 09-07 analogue
	d.Set(start.AddDate(0, 0, 7), "pairings", 50)
	v, idx := d.Max("pairings")
	if v != 100 || idx != 5 {
		t.Fatalf("Max = %v at %d", v, idx)
	}
	if r := d.Rank("pairings", start.AddDate(0, 0, 5)); r != 1 {
		t.Fatalf("rank of peak = %d", r)
	}
	if r := d.Rank("pairings", start.AddDate(0, 0, 7)); r != 2 {
		t.Fatalf("rank of second = %d", r)
	}
	if r := d.Rank("pairings", start.AddDate(0, 0, 2)); r != 3 {
		t.Fatalf("rank of third = %d", r)
	}
}

func TestSeriesCopyAndNames(t *testing.T) {
	d := NewDaily(start, end)
	d.Add(start, "b", 1)
	d.Add(start, "a", 1)
	s := d.Series("a")
	s[0] = 99
	if v, _ := d.Get(start, "a"); v != 1 {
		t.Fatal("Series returned live slice")
	}
	names := d.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("Names = %v", names)
	}
}

func TestTableRendering(t *testing.T) {
	d := NewDaily(start, start.AddDate(0, 0, 1))
	d.Add(start, "x", 1.5)
	out := d.Table("x")
	if !strings.Contains(out, "2016-08-01") || !strings.Contains(out, "1.5") {
		t.Fatalf("table = %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 { // header + 2 days
		t.Fatalf("table lines = %d", len(lines))
	}
}

func TestChart(t *testing.T) {
	d := NewDaily(start, end)
	for i := 0; i < 10; i++ {
		d.Set(start.AddDate(0, 0, i), "v", float64(i))
	}
	out := d.Chart("v", 10, 4)
	if !strings.Contains(out, "#") {
		t.Fatalf("chart has no bars: %q", out)
	}
	// Wider than days: one column per day.
	out2 := d.Chart("v", 100, 2)
	if len(strings.Split(out2, "\n")[1]) != 10 {
		t.Fatalf("chart width wrong: %q", out2)
	}
	if d.Chart("v", 0, 5) != "" {
		t.Fatal("zero width should render empty")
	}
}

func TestBreakdown(t *testing.T) {
	b := NewBreakdown("Token Device Pairing Type", map[string]int{
		"soft": 5538, "sms": 4022, "training": 297, "hard": 143,
	})
	if b.Rows[0].Label != "soft" || b.Rows[3].Label != "hard" {
		t.Fatalf("order = %+v", b.Rows)
	}
	if got := b.Percent("soft"); got < 55.3 || got > 55.5 {
		t.Fatalf("soft pct = %v", got)
	}
	if b.Percent("yubikey") != 0 {
		t.Fatal("absent label nonzero")
	}
	out := b.String()
	if !strings.Contains(out, "55.38") || !strings.Contains(out, "Breakdown (%)") {
		t.Fatalf("render = %q", out)
	}
	// Degenerate empty breakdown.
	eb := NewBreakdown("empty", nil)
	if len(eb.Rows) != 0 {
		t.Fatal("empty breakdown has rows")
	}
}

// Property: Sum equals the sum of per-day Adds regardless of ordering.
func TestSumProperty(t *testing.T) {
	f := func(vals []uint8) bool {
		d := NewDaily(start, end)
		var want float64
		for i, v := range vals {
			day := start.AddDate(0, 0, i%10)
			d.Add(day, "s", float64(v))
			want += float64(v)
		}
		return d.Sum("s") == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Breakdown percentages always total ~100 for nonempty counts.
func TestBreakdownTotalProperty(t *testing.T) {
	f := func(a, b, c uint16) bool {
		if a == 0 && b == 0 && c == 0 {
			return true
		}
		bd := NewBreakdown("t", map[string]int{"a": int(a), "b": int(b), "c": int(c)})
		var tot float64
		for _, r := range bd.Rows {
			tot += r.Percent
		}
		return tot > 99.999 && tot < 100.001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Regression: equal-percentage rows used to inherit map iteration order,
// so the same counts could render Table 1 differently between runs.
func TestBreakdownTieBreakDeterministic(t *testing.T) {
	counts := map[string]int{"delta": 10, "alpha": 10, "charlie": 10, "bravo": 10, "top": 60}
	want := []string{"top", "alpha", "bravo", "charlie", "delta"}
	for i := 0; i < 50; i++ {
		b := NewBreakdown("tie", counts)
		for j, row := range b.Rows {
			if row.Label != want[j] {
				t.Fatalf("run %d: row %d = %q, want %q (rows %+v)", i, j, row.Label, want[j], b.Rows)
			}
		}
	}
}

// Regression: Chart must tolerate non-positive dimensions (a caller sizing
// from a terminal can hand it 0 or negative values).
func TestChartNonPositiveDimensions(t *testing.T) {
	d := NewDaily(start, end)
	d.Set(start, "v", 3)
	for _, dim := range [][2]int{{0, 5}, {5, 0}, {0, 0}, {-3, 4}, {4, -2}, {-1, -1}} {
		if out := d.Chart("v", dim[0], dim[1]); out != "" {
			t.Fatalf("Chart(%d, %d) = %q, want empty", dim[0], dim[1], out)
		}
	}
}

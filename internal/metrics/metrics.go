// Package metrics provides small reporting utilities used across the
// repository: aligned text tables (for the paper-style outputs), CSV
// export, and time series with summary statistics.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Table accumulates rows and renders them as aligned text or CSV.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row; values are formatted with %v, floats with up to
// four significant decimals (trailing zeros trimmed).
func (t *Table) AddRow(values ...any) *Table {
	row := make([]string, len(values))
	for i, v := range values {
		row[i] = formatCell(v)
	}
	t.rows = append(t.rows, row)
	return t
}

func formatCell(v any) string {
	switch x := v.(type) {
	case float64:
		return FormatFloat(x)
	case float32:
		return FormatFloat(float64(x))
	default:
		return fmt.Sprintf("%v", v)
	}
}

// FormatFloat renders a float with four decimals, trimming zeros.
func FormatFloat(v float64) string {
	if math.IsNaN(v) {
		return "NaN"
	}
	if math.IsInf(v, 0) {
		if v > 0 {
			return "+Inf"
		}
		return "-Inf"
	}
	s := fmt.Sprintf("%.4f", v)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// String renders the table as aligned text.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (headers first).
// Cells containing commas, quotes, or line breaks (LF or CR) are
// quoted so the output round-trips through RFC 4180 parsers.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n\r") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Point is one time-series sample.
type Point struct {
	T float64
	V float64
}

// Series is an append-only time series.
type Series struct {
	Name   string
	points []Point
}

// NewSeries creates a named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Add appends a sample. Samples must be appended in non-decreasing time
// order; out-of-order appends panic.
func (s *Series) Add(t, v float64) {
	if n := len(s.points); n > 0 && t < s.points[n-1].T {
		panic(fmt.Sprintf("metrics: out-of-order sample t=%g after %g", t, s.points[n-1].T))
	}
	s.points = append(s.points, Point{t, v})
}

// Len returns the sample count.
func (s *Series) Len() int { return len(s.points) }

// Points returns a copy of the samples.
func (s *Series) Points() []Point { return append([]Point(nil), s.points...) }

// Last returns the most recent sample, or zero if empty.
func (s *Series) Last() Point {
	if len(s.points) == 0 {
		return Point{}
	}
	return s.points[len(s.points)-1]
}

// Stats summarizes a series.
type Stats struct {
	Count            int
	Min, Max, Mean   float64
	P50, P95, StdDev float64
}

// Stats computes summary statistics over the sample values.
func (s *Series) Stats() Stats {
	n := len(s.points)
	if n == 0 {
		return Stats{}
	}
	vals := make([]float64, n)
	sum := 0.0
	for i, p := range s.points {
		vals[i] = p.V
		sum += p.V
	}
	sort.Float64s(vals)
	mean := sum / float64(n)
	varsum := 0.0
	for _, v := range vals {
		varsum += (v - mean) * (v - mean)
	}
	return Stats{
		Count:  n,
		Min:    vals[0],
		Max:    vals[n-1],
		Mean:   mean,
		P50:    Percentile(vals, 0.50),
		P95:    Percentile(vals, 0.95),
		StdDev: math.Sqrt(varsum / float64(n)),
	}
}

// Percentile returns the q-quantile (0..1) of an ascending-sorted
// sample by linear interpolation, or 0 for an empty one.
func Percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := q * float64(len(sorted)-1)
	lo := int(math.Floor(idx))
	hi := int(math.Ceil(idx))
	if lo == hi {
		return sorted[lo]
	}
	frac := idx - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Rate returns the average dV/dT between the first and last samples, or
// 0 with fewer than two samples.
func (s *Series) Rate() float64 {
	n := len(s.points)
	if n < 2 {
		return 0
	}
	dt := s.points[n-1].T - s.points[0].T
	if dt <= 0 {
		return 0
	}
	return (s.points[n-1].V - s.points[0].V) / dt
}

// BarChart renders a horizontal ASCII bar chart: one row per label,
// bars scaled so the maximum value spans width characters.
func BarChart(title string, labels []string, values []float64, width int) string {
	if width <= 0 {
		width = 40
	}
	maxVal := 0.0
	maxLabel := 0
	for i, v := range values {
		if v > maxVal {
			maxVal = v
		}
		if i < len(labels) && len(labels[i]) > maxLabel {
			maxLabel = len(labels[i])
		}
	}
	var b strings.Builder
	if title != "" {
		b.WriteString(title)
		b.WriteByte('\n')
	}
	for i, v := range values {
		label := ""
		if i < len(labels) {
			label = labels[i]
		}
		n := 0
		if maxVal > 0 && v > 0 {
			n = int(v/maxVal*float64(width) + 0.5)
		}
		fmt.Fprintf(&b, "%-*s |%-*s %s\n", maxLabel, label, width, strings.Repeat("#", n), FormatFloat(v))
	}
	return b.String()
}

package exp

import (
	"fmt"
	"strconv"
	"strings"

	"mira/internal/plot"
	"mira/internal/stats"
)

// Chart conversion: experiment tables render as paper-style figures.
// Line charts suit the injection-rate sweeps (x = first column); bar
// charts suit the per-workload / per-design comparisons (groups = first
// column). Non-numeric columns (e.g. "5319/5319") are dropped; a cell's
// trailing saturation marker '*' and '%' suffixes are tolerated.

// parseNumeric parses a table cell, returning ok=false for non-numbers.
func parseNumeric(s string) (float64, bool) {
	s = strings.TrimSpace(s)
	s = strings.TrimSuffix(s, "*")
	s = strings.TrimSuffix(s, "%")
	v, err := strconv.ParseFloat(s, 64)
	return v, err == nil
}

// numericColumns returns the indices (>= from) of columns whose every
// cell parses as a number.
func numericColumns(t stats.Table, from int) []int {
	var cols []int
	for c := from; c < len(t.Header); c++ {
		ok := len(t.Rows) > 0
		for _, row := range t.Rows {
			if c >= len(row) {
				ok = false
				break
			}
			if _, good := parseNumeric(row[c]); !good {
				ok = false
				break
			}
		}
		if ok {
			cols = append(cols, c)
		}
	}
	return cols
}

// lineChart converts the table into a line chart with column 0 as the x
// axis.
func lineChart(t stats.Table, ylabel string) (*plot.LineChart, error) {
	cols := numericColumns(t, 1)
	if len(cols) == 0 {
		return nil, fmt.Errorf("exp: table %s has no numeric series columns", t.ID)
	}
	if _, ok := parseNumeric(t.Rows[0][0]); !ok {
		return nil, fmt.Errorf("exp: table %s has a non-numeric x column", t.ID)
	}
	c := &plot.LineChart{Title: t.Title, XLabel: t.Header[0], YLabel: ylabel}
	for _, ci := range cols {
		s := plot.Series{Name: t.Header[ci]}
		for _, row := range t.Rows {
			x, _ := parseNumeric(row[0])
			y, _ := parseNumeric(row[ci])
			s.X = append(s.X, x)
			s.Y = append(s.Y, y)
		}
		c.Series = append(c.Series, s)
	}
	return c, nil
}

// barChart converts the table into a grouped bar chart with column 0 as
// the group labels.
func barChart(t stats.Table, ylabel string) (*plot.BarChart, error) {
	cols := numericColumns(t, 1)
	if len(cols) == 0 {
		return nil, fmt.Errorf("exp: table %s has no numeric series columns", t.ID)
	}
	c := &plot.BarChart{Title: t.Title, YLabel: ylabel}
	for _, row := range t.Rows {
		c.Groups = append(c.Groups, row[0])
	}
	for _, ci := range cols {
		s := plot.BarSeries{Name: t.Header[ci]}
		for _, row := range t.Rows {
			v, _ := parseNumeric(row[ci])
			s.Values = append(s.Values, v)
		}
		c.Series = append(c.Series, s)
	}
	return c, nil
}

// SVG renders the table as the most suitable chart: a line chart when
// the first column is numeric (a sweep), otherwise a grouped bar chart.
func SVG(t stats.Table, ylabel string) (string, error) {
	if len(t.Rows) == 0 {
		return "", fmt.Errorf("exp: table %s is empty", t.ID)
	}
	if _, numericX := parseNumeric(t.Rows[0][0]); numericX {
		c, err := lineChart(t, ylabel)
		if err != nil {
			return "", err
		}
		return c.SVG()
	}
	c, err := barChart(t, ylabel)
	if err != nil {
		return "", err
	}
	return c.SVG()
}

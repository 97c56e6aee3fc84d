// Package plot renders experiment results as standalone SVG figures
// (line charts for the injection-rate sweeps of Figs. 11 and 12, grouped
// bar charts for the per-workload and per-design comparisons of Figs. 1,
// 2, 9 and 13) using only the standard library. The output aims for
// "paper figure" fidelity: titled axes, tick labels, legends,
// deterministic layout. mirabench -svg routes every experiment table with a
// numeric series through here (exp.SVG picks the chart).
package plot

import (
	"fmt"
	"math"
	"strings"
)

// Default canvas geometry (pixels).
const (
	defaultWidth  = 720
	defaultHeight = 440
	marginLeft    = 70
	marginRight   = 160
	marginTop     = 48
	marginBottom  = 56
)

// palette holds the series colors (colorblind-friendly).
var palette = []string{
	"#0072b2", "#d55e00", "#009e73", "#cc79a7", "#e69f00", "#56b4e9", "#999999",
}

// Series is one named line in a LineChart.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// LineChart is an x/y chart with multiple series.
type LineChart struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
	// Width/Height default to 720x440 when zero.
	Width, Height int
}

// BarSeries is one named bar group member.
type BarSeries struct {
	Name   string
	Values []float64
}

// BarChart is a grouped bar chart: one cluster per group, one bar per
// series within each cluster.
type BarChart struct {
	Title  string
	YLabel string
	Groups []string
	Series []BarSeries
	Width  int
	Height int
}

// niceTicks returns ~5 rounded tick values covering [lo, hi].
func niceTicks(lo, hi float64) []float64 {
	if hi < lo {
		lo, hi = hi, lo
	}
	if hi == lo {
		hi = lo + 1
	}
	span := hi - lo
	step := math.Pow(10, math.Floor(math.Log10(span/4)))
	for span/step > 8 {
		step *= 2
	}
	for span/step < 3 {
		step /= 2
	}
	start := math.Floor(lo/step) * step
	var ticks []float64
	for v := start; v <= hi+step/2; v += step {
		if v >= lo-step/2 {
			ticks = append(ticks, v)
		}
	}
	return ticks
}

// fmtTick renders a tick label compactly.
func fmtTick(v float64) string {
	a := math.Abs(v)
	switch {
	case v == 0:
		return "0"
	case a >= 100:
		return fmt.Sprintf("%.0f", v)
	case a >= 1:
		return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.2f", v), "0"), ".")
	default:
		return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.3f", v), "0"), ".")
	}
}

func esc(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

type svgBuilder struct {
	strings.Builder
	w, h int
}

func newSVG(w, h int) *svgBuilder {
	b := &svgBuilder{w: w, h: h}
	fmt.Fprintf(b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n", w, h, w, h)
	fmt.Fprintf(b, `<rect width="%d" height="%d" fill="white"/>`+"\n", w, h)
	return b
}

func (b *svgBuilder) text(x, y float64, size int, anchor, style, s string) {
	fmt.Fprintf(b, `<text x="%.1f" y="%.1f" font-size="%d" font-family="Helvetica,Arial,sans-serif" text-anchor="%s"%s>%s</text>`+"\n",
		x, y, size, anchor, style, esc(s))
}

func (b *svgBuilder) line(x1, y1, x2, y2 float64, stroke string, width float64) {
	fmt.Fprintf(b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="%.1f"/>`+"\n",
		x1, y1, x2, y2, stroke, width)
}

func (b *svgBuilder) finish() string {
	b.WriteString("</svg>\n")
	return b.String()
}

// frame draws the title, axes box, ticks and labels, returning the
// mapping from data space to pixel space.
func frame(b *svgBuilder, title, xlabel, ylabel string, xlo, xhi, ylo, yhi float64, xticks []float64, xtickLabels []string) (mapX, mapY func(float64) float64) {
	plotW := float64(b.w - marginLeft - marginRight)
	plotH := float64(b.h - marginTop - marginBottom)
	mapX = func(v float64) float64 {
		return marginLeft + (v-xlo)/(xhi-xlo)*plotW
	}
	mapY = func(v float64) float64 {
		return marginTop + plotH - (v-ylo)/(yhi-ylo)*plotH
	}
	b.text(float64(b.w)/2, 24, 16, "middle", ` font-weight="bold"`, title)
	// Axes box.
	b.line(marginLeft, marginTop, marginLeft, marginTop+plotH, "#333", 1)
	b.line(marginLeft, marginTop+plotH, marginLeft+plotW, marginTop+plotH, "#333", 1)
	// Y ticks and gridlines.
	for _, v := range niceTicks(ylo, yhi) {
		y := mapY(v)
		b.line(marginLeft-4, y, marginLeft, y, "#333", 1)
		b.line(marginLeft, y, marginLeft+plotW, y, "#e5e5e5", 0.8)
		b.text(marginLeft-8, y+4, 11, "end", "", fmtTick(v))
	}
	// X ticks.
	for i, v := range xticks {
		x := mapX(v)
		b.line(x, marginTop+plotH, x, marginTop+plotH+4, "#333", 1)
		label := fmtTick(v)
		if xtickLabels != nil {
			label = xtickLabels[i]
		}
		b.text(x, marginTop+plotH+18, 11, "middle", "", label)
	}
	b.text(marginLeft+plotW/2, float64(b.h)-12, 13, "middle", "", xlabel)
	b.text(18, marginTop+plotH/2, 13, "middle",
		fmt.Sprintf(` transform="rotate(-90 18 %.1f)"`, marginTop+plotH/2), ylabel)
	return mapX, mapY
}

func legend(b *svgBuilder, names []string) {
	x := float64(b.w - marginRight + 16)
	y := float64(marginTop + 8)
	for i, name := range names {
		c := palette[i%len(palette)]
		fmt.Fprintf(b, `<rect x="%.1f" y="%.1f" width="12" height="12" fill="%s"/>`+"\n", x, y-10, c)
		b.text(x+18, y, 12, "start", "", name)
		y += 20
	}
}

// SVG renders the line chart.
func (c *LineChart) SVG() (string, error) {
	if len(c.Series) == 0 {
		return "", fmt.Errorf("plot: line chart %q has no series", c.Title)
	}
	w, h := c.Width, c.Height
	if w == 0 {
		w = defaultWidth
	}
	if h == 0 {
		h = defaultHeight
	}
	xlo, xhi := math.Inf(1), math.Inf(-1)
	ylo, yhi := math.Inf(1), math.Inf(-1)
	for _, s := range c.Series {
		if len(s.X) != len(s.Y) {
			return "", fmt.Errorf("plot: series %q has %d x and %d y points", s.Name, len(s.X), len(s.Y))
		}
		for i := range s.X {
			xlo, xhi = math.Min(xlo, s.X[i]), math.Max(xhi, s.X[i])
			ylo, yhi = math.Min(ylo, s.Y[i]), math.Max(yhi, s.Y[i])
		}
	}
	if math.IsInf(xlo, 1) {
		return "", fmt.Errorf("plot: line chart %q has no points", c.Title)
	}
	if ylo > 0 && ylo < yhi/3 {
		ylo = 0 // anchor near-zero charts at zero
	}
	if xhi == xlo {
		xhi = xlo + 1
	}
	if yhi == ylo {
		yhi = ylo + 1
	}
	yhi += (yhi - ylo) * 0.05

	b := newSVG(w, h)
	mapX, mapY := frame(b, c.Title, c.XLabel, c.YLabel, xlo, xhi, ylo, yhi, niceTicks(xlo, xhi), nil)
	for i, s := range c.Series {
		color := palette[i%len(palette)]
		var pts []string
		for j := range s.X {
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", mapX(s.X[j]), mapY(s.Y[j])))
		}
		fmt.Fprintf(b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="2"/>`+"\n",
			strings.Join(pts, " "), color)
		for j := range s.X {
			fmt.Fprintf(b, `<circle cx="%.1f" cy="%.1f" r="3" fill="%s"/>`+"\n",
				mapX(s.X[j]), mapY(s.Y[j]), color)
		}
	}
	var names []string
	for _, s := range c.Series {
		names = append(names, s.Name)
	}
	legend(b, names)
	return b.finish(), nil
}

// SVG renders the grouped bar chart.
func (c *BarChart) SVG() (string, error) {
	if len(c.Series) == 0 || len(c.Groups) == 0 {
		return "", fmt.Errorf("plot: bar chart %q is empty", c.Title)
	}
	for _, s := range c.Series {
		if len(s.Values) != len(c.Groups) {
			return "", fmt.Errorf("plot: series %q has %d values for %d groups", s.Name, len(s.Values), len(c.Groups))
		}
	}
	w, h := c.Width, c.Height
	if w == 0 {
		w = defaultWidth
	}
	if h == 0 {
		h = defaultHeight
	}
	ylo, yhi := 0.0, math.Inf(-1)
	for _, s := range c.Series {
		for _, v := range s.Values {
			yhi = math.Max(yhi, v)
			ylo = math.Min(ylo, v)
		}
	}
	if yhi <= ylo {
		yhi = ylo + 1
	}
	yhi += (yhi - ylo) * 0.05

	nG, nS := len(c.Groups), len(c.Series)
	// Group i occupies x in [i, i+1); bars within leave 20% padding.
	b := newSVG(w, h)
	xticks := make([]float64, nG)
	for i := range xticks {
		xticks[i] = float64(i) + 0.5
	}
	mapX, mapY := frame(b, c.Title, "", c.YLabel, 0, float64(nG), ylo, yhi, xticks, c.Groups)
	y0 := mapY(math.Max(0, ylo))
	barW := 0.8 / float64(nS)
	for si, s := range c.Series {
		color := palette[si%len(palette)]
		for gi, v := range s.Values {
			x := mapX(float64(gi) + 0.1 + barW*float64(si))
			xw := mapX(float64(gi)+0.1+barW*float64(si+1)) - x - 1
			y := mapY(v)
			top, height := y, y0-y
			if height < 0 {
				top, height = y0, -height
			}
			fmt.Fprintf(b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s"/>`+"\n",
				x, top, xw, height, color)
		}
	}
	var names []string
	for _, s := range c.Series {
		names = append(names, s.Name)
	}
	legend(b, names)
	return b.finish(), nil
}

// Heatmap is a matrix chart: one colored cell per (row, column) value,
// rendered with a sequential white-to-blue ramp and a value legend. The
// observability layer's per-router congestion matrices (internal/obs
// CongestionHeatmap) render through it; rows are routers, columns are
// cycle windows.
type Heatmap struct {
	Title  string
	XLabel string
	YLabel string
	// Rows[i][j] is the cell value at row i, column j; all rows must
	// have the same length.
	Rows      [][]float64
	RowLabels []string // one per row (optional)
	ColLabels []string // one per column (optional)
	Width     int
	Height    int
}

// rampColor maps t in [0,1] onto a white-to-deep-blue ramp.
func rampColor(t float64) string {
	if math.IsNaN(t) || t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	// Interpolate white (255,255,255) -> #08519c (8,81,156).
	r := int(255 + t*(8-255))
	g := int(255 + t*(81-255))
	b := int(255 + t*(156-255))
	return fmt.Sprintf("#%02x%02x%02x", r, g, b)
}

// SVG renders the heatmap.
func (c *Heatmap) SVG() (string, error) {
	if len(c.Rows) == 0 || len(c.Rows[0]) == 0 {
		return "", fmt.Errorf("plot: heatmap %q is empty", c.Title)
	}
	nR, nC := len(c.Rows), len(c.Rows[0])
	for i, r := range c.Rows {
		if len(r) != nC {
			return "", fmt.Errorf("plot: heatmap row %d has %d cells, want %d", i, len(r), nC)
		}
	}
	if c.RowLabels != nil && len(c.RowLabels) != nR {
		return "", fmt.Errorf("plot: heatmap has %d row labels for %d rows", len(c.RowLabels), nR)
	}
	if c.ColLabels != nil && len(c.ColLabels) != nC {
		return "", fmt.Errorf("plot: heatmap has %d column labels for %d columns", len(c.ColLabels), nC)
	}
	w, h := c.Width, c.Height
	if w == 0 {
		w = defaultWidth
	}
	if h == 0 {
		h = defaultHeight
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, row := range c.Rows {
		for _, v := range row {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
	}
	if lo > 0 {
		lo = 0 // anchor the ramp at zero so "no stall" reads as white
	}
	if hi <= lo {
		hi = lo + 1
	}

	b := newSVG(w, h)
	b.text(float64(w)/2, 24, 16, "middle", ` font-weight="bold"`, c.Title)
	plotW := float64(w - marginLeft - marginRight)
	plotH := float64(h - marginTop - marginBottom)
	cellW := plotW / float64(nC)
	cellH := plotH / float64(nR)
	for i, row := range c.Rows {
		y := float64(marginTop) + float64(i)*cellH
		for j, v := range row {
			x := float64(marginLeft) + float64(j)*cellW
			fmt.Fprintf(b, `<rect x="%.1f" y="%.1f" width="%.2f" height="%.2f" fill="%s"/>`+"\n",
				x, y, cellW, cellH, rampColor((v-lo)/(hi-lo)))
		}
		if c.RowLabels != nil {
			b.text(float64(marginLeft)-6, y+cellH/2+4, 10, "end", "", c.RowLabels[i])
		}
	}
	// Column labels: thin to at most ~12 so they stay readable.
	if c.ColLabels != nil {
		step := (nC + 11) / 12
		for j := 0; j < nC; j += step {
			x := float64(marginLeft) + (float64(j)+0.5)*cellW
			b.text(x, float64(marginTop)+plotH+16, 10, "middle", "", c.ColLabels[j])
		}
	}
	b.text(float64(marginLeft)+plotW/2, float64(h)-12, 13, "middle", "", c.XLabel)
	b.text(18, float64(marginTop)+plotH/2, 13, "middle",
		fmt.Sprintf(` transform="rotate(-90 18 %.1f)"`, float64(marginTop)+plotH/2), c.YLabel)
	// Color legend: vertical ramp with min/max labels.
	lx := float64(w - marginRight + 24)
	steps := 24
	lh := plotH * 0.6
	ly := float64(marginTop) + (plotH-lh)/2
	for s := 0; s < steps; s++ {
		t := 1 - float64(s)/float64(steps-1)
		fmt.Fprintf(b, `<rect x="%.1f" y="%.1f" width="14" height="%.2f" fill="%s"/>`+"\n",
			lx, ly+float64(s)*lh/float64(steps), lh/float64(steps)+0.5, rampColor(t))
	}
	b.text(lx+20, ly+8, 10, "start", "", fmtTick(hi))
	b.text(lx+20, ly+lh, 10, "start", "", fmtTick(lo))
	return b.finish(), nil
}

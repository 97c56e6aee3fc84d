package stats

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"strings"
)

// Table is the one tabular result type: a header row and string cells,
// renderable as aligned text, RFC 4180 CSV, or JSON. The experiment
// drivers (internal/exp) return one per paper table or figure, tagged
// with its ID; the observability layer (internal/obs) and the collective
// engine export their series and summaries through it.
type Table struct {
	// ID names an experiment table (mirabench's experiment ID); it
	// prefixes the title line when set.
	ID     string     `json:"id,omitempty"`
	Title  string     `json:"title,omitempty"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	// Notes are free-form caption lines rendered after the text form and
	// carried in JSON; the CSV form omits them so machine consumers see
	// data rows only.
	Notes []string `json:"notes,omitempty"`
}

// AddRow appends one row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table as aligned plain text.
func (t Table) String() string {
	var sb strings.Builder
	switch {
	case t.ID != "":
		fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	case t.Title != "":
		fmt.Fprintf(&sb, "== %s ==\n", t.Title)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			fmt.Fprintf(&sb, "%-*s", w, c)
		}
		sb.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// CSV renders the table as RFC 4180 CSV (header first; the title is
// omitted). Cells containing commas, quotes or newlines are quoted.
func (t Table) CSV() string {
	var sb strings.Builder
	w := csv.NewWriter(&sb)
	if err := w.Write(t.Header); err != nil {
		panic(err) // strings.Builder never errors
	}
	if err := w.WriteAll(t.Rows); err != nil {
		panic(err)
	}
	w.Flush()
	return sb.String()
}

// JSON renders the table as a JSON object with "header" and "rows"
// arrays (plus "title" when set).
func (t Table) JSON() []byte {
	data, err := json.Marshal(t)
	if err != nil {
		panic(err) // string slices always marshal
	}
	return data
}

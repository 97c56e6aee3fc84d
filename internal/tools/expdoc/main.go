// Command expdoc keeps the measured lines EXPERIMENTS.md quotes for
// Figures 11 (a) and 12 (a) equal to what mirabench prints. It reads
// mirabench -csv output on stdin and re-renders every block of the named
// file that sits between
//
//	<!-- expdoc fig11a -->
//	<!-- /expdoc -->
//
// from the table of that id:
//
//	go run ./cmd/mirabench -csv fig11a fig12a | go run ./internal/tools/expdoc EXPERIMENTS.md
//
// Like gofmt -l, it prints the file's name and exits 1 when a block
// differs; -w rewrites the blocks instead. A figure it renders whose
// block or table is missing is an error.
package main

import (
	"bytes"
	"cmp"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// table is one mirabench -csv table: the header row, then one row per
// label in the first column.
type table [][]string

// cell returns the printed cell in row label, column col, and its value
// with a saturation mark ("*") dropped.
func (t table) cell(label, col string) (string, float64, error) {
	c := -1
	for i, h := range t[0] {
		if h == col {
			c = i
		}
	}
	for _, r := range t[1:] {
		if r[0] == label && c >= 0 && c < len(r) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(r[c], "*"), 64)
			return r[c], v, err
		}
	}
	return "", 0, fmt.Errorf("no cell %s / %s", label, col)
}

// parse splits mirabench -csv output into its tables by id: each is a
// "# id" line, the CSV body and a blank line.
func parse(out string) (map[string]table, error) {
	tables := map[string]table{}
	for _, chunk := range strings.Split("\n"+out, "\n# ")[1:] {
		id, body, _ := strings.Cut(chunk, "\n")
		r := csv.NewReader(strings.NewReader(body))
		r.FieldsPerRecord = -1
		rows, err := r.ReadAll()
		if err != nil || len(rows) < 2 {
			return nil, fmt.Errorf("table %s: %d rows (%v)", id, len(rows), err)
		}
		tables[id] = rows
	}
	return tables, nil
}

// renderers are the figures expdoc keeps, each rendering its block's
// text, a sentence a line, from its table. A percentage is a saving, 1 - a/b, of the
// printed values.
var renderers = map[string]func(table) (string, error){
	"fig11a": func(t table) (string, error) {
		q := quoter{t: t}
		return fmt.Sprintf("Measured at 0.30 flits/node/cycle: 2DB %s, 3DB %s, 3DM %s, 3DM(NC) %s, "+
			"3DM-E %s, 3DM-E(NC) %s cycles.\nAt 0.40: 2DB %s vs 3DM-E %s.\n\n"+
			"Paper vs measured at 30 %% injection: 3DM-E vs 3DB −%d %% (paper ~26 %%).\n"+
			"3DM-E vs 2DB −%d %% (paper \"up to 51 %%\", reached here at 0.40: −%d %%).\n"+
			"Pipeline combination (3DM vs 3DM(NC)) saves %d %% at 0.30 (paper \"up to 14 %%\").",
			q.at("0.30", "2DB"), q.at("0.30", "3DB"), q.at("0.30", "3DM"), q.at("0.30", "3DM(NC)"),
			q.at("0.30", "3DM-E"), q.at("0.30", "3DM-E(NC)"), q.at("0.40", "2DB"), q.at("0.40", "3DM-E"),
			q.saving("0.30", "3DM-E", "3DB"), q.saving("0.30", "3DM-E", "2DB"), q.saving("0.40", "3DM-E", "2DB"),
			q.saving("0.30", "3DM", "3DM(NC)")), q.err
	},
	"fig12a": func(t table) (string, error) {
		q := quoter{t: t}
		return fmt.Sprintf("Measured at 0.15 flits/node/cycle: 2DB %s W, 3DB %s W, 3DM %s W, 3DM-E %s W.\n"+
			"Savings vs 2DB: 3DM-E %d %% (paper 42 %%), 3DM %d %% (paper 22 %%); "+
			"vs 3DB: 3DM-E %d %% (paper 37 %%), 3DM %d %% (paper 15 %%).",
			q.at("0.15", "2DB"), q.at("0.15", "3DB"), q.at("0.15", "3DM"), q.at("0.15", "3DM-E"),
			q.saving("0.15", "3DM-E", "2DB"), q.saving("0.15", "3DM", "2DB"),
			q.saving("0.15", "3DM-E", "3DB"), q.saving("0.15", "3DM", "3DB")), q.err
	},
}

// quoter reads cells of one table, keeping the first error.
type quoter struct {
	t   table
	err error
}

// at is the cell at label, col as printed.
func (q *quoter) at(label, col string) string {
	s, _, err := q.t.cell(label, col)
	q.err = cmp.Or(q.err, err)
	return s
}

// saving is 1 - a/b in whole percent, a and b the values of columns a
// and b at label.
func (q *quoter) saving(label, a, b string) int {
	_, va, errA := q.t.cell(label, a)
	_, vb, errB := q.t.cell(label, b)
	q.err = cmp.Or(q.err, errA, errB)
	return int(math.Round(100 * (1 - va/vb)))
}

// rewrite re-renders every marked block of doc from tables.
func rewrite(doc string, tables map[string]table) (string, error) {
	const open, end = "<!-- expdoc ", "<!-- /expdoc -->"
	var b strings.Builder
	seen := map[string]bool{}
	for {
		i := strings.Index(doc, open)
		if i < 0 {
			break
		}
		id, rest, _ := strings.Cut(doc[i+len(open):], " -->\n")
		j := strings.Index(rest, end)
		render, ok := renderers[id]
		if j < 0 || !ok {
			return "", fmt.Errorf("block %q: no renderer, or no %s", id, end)
		}
		t, ok := tables[id]
		if !ok {
			return "", fmt.Errorf("block %s: no such table in the input", id)
		}
		text, err := render(t)
		if err != nil {
			return "", fmt.Errorf("block %s: %v", id, err)
		}
		seen[id] = true
		b.WriteString(doc[:i] + open + id + " -->\n" + text + "\n")
		doc = rest[j:]
	}
	b.WriteString(doc)
	for id := range renderers {
		if !seen[id] {
			return "", fmt.Errorf("no block %s", id)
		}
	}
	return b.String(), nil
}

func main() {
	write := flag.Bool("w", false, "rewrite the blocks instead of listing a file that differs")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mirabench -csv fig11a fig12a | expdoc [-w] FILE")
		os.Exit(2)
	}
	name := flag.Arg(0)
	in, err := io.ReadAll(os.Stdin)
	if err == nil {
		var doc []byte
		if doc, err = os.ReadFile(name); err == nil {
			err = check(name, doc, string(in), *write)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "expdoc:", err)
		os.Exit(1)
	}
}

// check re-renders doc from mirabench's output and rewrites the file
// (write) or fails listing it when a block differs.
func check(name string, doc []byte, out string, write bool) error {
	tables, err := parse(out)
	if err != nil {
		return err
	}
	got, err := rewrite(string(doc), tables)
	switch {
	case err != nil:
		return err
	case bytes.Equal([]byte(got), doc):
		return nil
	case write:
		return os.WriteFile(name, []byte(got), 0o644)
	}
	fmt.Println(name)
	return fmt.Errorf("%s: measured lines differ from mirabench's (rewrite with -w)", name)
}

package main

import (
	"strings"
	"testing"
)

const csvOut = `# fig11a
inj rate,2DB,3DB,3DM,3DM(NC),3DM-E,3DM-E(NC)
0.30,36.3,28.5,31.5,36.4,21.0,24.5
0.40,45.7*,31.1,41.4,45.7,22.7,26.1

# fig12a
inj rate,2DB,3DB,3DM,3DM(NC),3DM-E,3DM-E(NC)
0.15,2.974,2.114,1.602,1.614,1.568,1.563

`

// TestRewrite renders both blocks from mirabench -csv output, leaves the
// prose around them alone, is a fixed point on its own output, and
// refuses a document missing a block or input missing a table.
func TestRewrite(t *testing.T) {
	tables, err := parse(csvOut)
	if err != nil {
		t.Fatal(err)
	}
	doc := "intro\n<!-- expdoc fig11a -->\nstale\n<!-- /expdoc -->\nmiddle\n<!-- expdoc fig12a -->\n<!-- /expdoc -->\nend\n"
	got, err := rewrite(doc, tables)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"intro\n<!-- expdoc fig11a -->\nMeasured at 0.30 flits/node/cycle: 2DB 36.3, 3DB 28.5,",
		"At 0.40: 2DB 45.7* vs 3DM-E 22.7.\n",
		"3DM-E vs 3DB −26 % (paper ~26 %).\n3DM-E vs 2DB −42 % (paper \"up to 51 %\", reached here at 0.40: −50 %).\n",
		"saves 13 % at 0.30 (paper \"up to 14 %\").\n<!-- /expdoc -->\nmiddle\n",
		"Savings vs 2DB: 3DM-E 47 % (paper 42 %), 3DM 46 % (paper 22 %); vs 3DB: 3DM-E 26 % (paper 37 %), 3DM 24 % (paper 15 %).\n<!-- /expdoc -->\nend\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("rendered document lacks %q:\n%s", want, got)
		}
	}
	if again, err := rewrite(got, tables); err != nil || again != got {
		t.Errorf("a second rewrite changed the document (%v)", err)
	}
	if _, err := rewrite("<!-- expdoc fig11a -->\n<!-- /expdoc -->\n", tables); err == nil {
		t.Error("a document without the fig12a block was accepted")
	}
	delete(tables, "fig12a")
	if _, err := rewrite(got, tables); err == nil {
		t.Error("input without the fig12a table was accepted")
	}
}

package exp

import (
	"context"
	"testing"
)

func TestChipletSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("chiplet sweep is a full 8-point simulation sweep")
	}
	o := Quick()
	tb, err := ChipletSweep(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 8 {
		t.Fatalf("chiplet sweep: %d rows, want 8", len(tb.Rows))
	}
	t.Logf("\n%s", tb)
}

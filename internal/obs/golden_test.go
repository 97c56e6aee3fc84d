package obs_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mira/internal/scenario"
)

// TestTraceGolden pins the JSONL trace format byte for byte: each
// scenario under testdata must write a trace with the committed sha256.
// The digests were taken from the reflective encoding/json writer this
// format began with. trace_3dm is what the CI observability smoke
// records with mirasim flags and checks against the same digest;
// trace_3dm_filtered records NUCA traffic (short flits, so "al" keys)
// through a node and class filter, so filtered files are pinned too.
func TestTraceGolden(t *testing.T) {
	for _, name := range []string{"trace_3dm", "trace_3dm_filtered"} {
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", name+".sha256"))
			if err != nil {
				t.Fatal(err)
			}
			sc, err := scenario.Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			e, err := sc.Elaborate()
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			e.Obs.SetTraceWriter(h)
			e.Sim.Run(context.Background())
			if err := e.Obs.Close(); err != nil {
				t.Fatal(err)
			}
			if e.Obs.Summary().Traced == 0 {
				t.Fatal("empty trace")
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != strings.TrimSpace(string(want)) {
				t.Errorf("trace sha256 %s, committed %s: the trace format drifted", got, strings.TrimSpace(string(want)))
			}
		})
	}
}

package obs_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"mira/internal/obs"
	"mira/internal/scenario"
)

// TestTraceGolden pins the JSONL trace format byte for byte: each
// scenario under testdata must write a trace with the committed sha256.
// The digests were taken from the reflective encoding/json writer this
// format began with. trace_3dm is what the CI observability smoke
// records with mirasim -set edits and checks against the same digest;
// trace_3dm_filtered records NUCA traffic (short flits, so "al" keys)
// through a node and class filter, so filtered files are pinned too.
//
// Each scenario also pins an order-free digest (<name>.sorted.sha256: the
// sha256 of the trace's lines in byte order, what `LC_ALL=C sort |
// sha256sum` prints). The order of same-cycle events at one router is
// not part of the model (probe.go), so a kernel change may re-pin the
// byte-exact digest — but only as a permutation: the sorted digest must
// not move with it.
//
// The same runs fold spans too (the trace filter does not reach them),
// and pin the span artifacts: <name>.attrib.sha256 is the digest of the
// combined attribution CSV "mirasim -attrib" writes, <name>.perfetto.sha256
// that of the Perfetto JSON "miratrace spans -perfetto" writes for the
// run's unfiltered trace.
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
			sc.Observe.Spans = true
			e, err := sc.Elaborate()
			if err != nil {
				t.Fatal(err)
			}
			var trace bytes.Buffer
			e.Obs.SetTraceWriter(&trace)
			e.Sim.Run(context.Background())
			if err := e.Obs.Close(); err != nil {
				t.Fatal(err)
			}
			if e.Obs.Summary().Traced == 0 {
				t.Fatal("empty trace")
			}
			sum := sha256.Sum256(trace.Bytes())
			if got := hex.EncodeToString(sum[:]); got != strings.TrimSpace(string(want)) {
				t.Errorf("trace sha256 %s, committed %s: the trace format drifted", got, strings.TrimSpace(string(want)))
			}
			wantSorted, err := os.ReadFile(filepath.Join("testdata", name+".sorted.sha256"))
			if err != nil {
				t.Fatal(err)
			}
			if got := sortedLinesDigest(trace.Bytes()); got != strings.TrimSpace(string(wantSorted)) {
				t.Errorf("sorted-lines sha256 %s, committed %s: the trace is no longer a permutation of the pinned one",
					got, strings.TrimSpace(string(wantSorted)))
			}

			sb := e.Obs.Spans()
			if err := sb.Err(); err != nil {
				t.Fatal(err)
			}
			attrib := sha256.Sum256([]byte(sb.Attribution().CombinedTable().CSV()))
			perfetto := sha256.New()
			if err := obs.WriteTraceDoc(perfetto, obs.PerfettoDoc(sb.Spans())); err != nil {
				t.Fatal(err)
			}
			for suffix, sum := range map[string][]byte{".attrib.sha256": attrib[:], ".perfetto.sha256": perfetto.Sum(nil)} {
				want, err := os.ReadFile(filepath.Join("testdata", name+suffix))
				if err != nil {
					t.Fatal(err)
				}
				if got := hex.EncodeToString(sum); got != strings.TrimSpace(string(want)) {
					t.Errorf("%s%s: sha256 %s, committed %s: the span artifact drifted", name, suffix, got, strings.TrimSpace(string(want)))
				}
			}
		})
	}
}

// sortedLinesDigest hashes the newline-terminated lines of data in byte
// order.
func sortedLinesDigest(data []byte) string {
	lines := strings.SplitAfter(string(data), "\n")
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
	}
	return hex.EncodeToString(h.Sum(nil))
}

package obs

import (
	"bytes"
	"testing"

	"mira/internal/noc"
)

// TestArtifactsIdenticalAcrossShards pins the observability half of the
// shard-determinism contract end to end: with the mesh partitioned into
// concurrently stepped shards (noc.Config.Shards) the merged probe
// stream must replay exactly, so the recorded flit trace, the span
// attribution table and the Perfetto export are all byte-identical to
// the sequential run at every shard count.
func TestArtifactsIdenticalAcrossShards(t *testing.T) {
	type artifacts struct {
		trace, attrib, perfetto string
	}
	build := func(shards int) artifacts {
		var buf bytes.Buffer
		c := runSpans(t, func(nc *noc.Config) { nc.Shards = shards }, &buf)
		sb := c.Spans()
		var pf bytes.Buffer
		if err := WriteTraceDoc(&pf, PerfettoDoc(sb.Spans())); err != nil {
			t.Fatalf("WriteTraceDoc: %v", err)
		}
		return artifacts{
			trace:    buf.String(),
			attrib:   sb.Attribution().CombinedTable().CSV(),
			perfetto: pf.String(),
		}
	}
	ref := build(1)
	if len(ref.trace) == 0 || len(ref.attrib) == 0 {
		t.Fatal("reference artifacts empty; comparison is vacuous")
	}
	for _, shards := range []int{2, 4, 8} {
		got := build(shards)
		if got.trace != ref.trace {
			t.Errorf("shards=%d: flit trace diverges from sequential", shards)
		}
		if got.attrib != ref.attrib {
			t.Errorf("shards=%d: attribution CSV diverges from sequential", shards)
		}
		if got.perfetto != ref.perfetto {
			t.Errorf("shards=%d: perfetto JSON diverges from sequential", shards)
		}
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"mira/internal/scenario"
)

// mirasim is the command under test, built once by TestMain.
var mirasim string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "mirasim-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	mirasim = filepath.Join(dir, "mirasim")
	code := 1
	if out, err := exec.Command("go", "build", "-o", mirasim, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// run executes mirasim with args in an empty directory and returns its
// stdout, stderr and exit status.
func run(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(mirasim, args...)
	cmd.Dir = t.TempDir()
	var o, e bytes.Buffer
	cmd.Stdout, cmd.Stderr = &o, &e
	var exit *exec.ExitError
	if err := cmd.Run(); err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return o.String(), e.String(), cmd.ProcessState.ExitCode()
}

// respelled holds one row per retired scenario flag and one per mirasim
// invocation in the CI workflow, README, EXPERIMENTS and the verify
// skill. old is the invocation as it was written with scenario flags,
// dump what "mirasim OLD -dump" printed before those flags were retired,
// and new the same run spelled with -set edits, which must dump the same
// bytes.
var respelled = []struct {
	name, old string
	new       []string
	dump      string
}{
	{
		name: "flag -arch",
		old:  "-arch 3DM-E",
		new:  []string{"-set", "arch=3DM-E"},
		dump: `{
  "arch": "3DM-E",
  "traffic": {
    "kind": "ur",
    "rate": 0.15
  },
  "warmup": 5000,
  "measure": 20000,
  "drain": 40000,
  "seed": 1,
  "step_mode": "activity"
}
`,
	},
	{
		name: "flag -traffic",
		old:  "-traffic hotspot",
		new:  []string{"-set", `traffic={"kind":"hotspot","rate":0.15,"hot_frac":0.3}`},
		dump: `{
  "arch": "3DM",
  "traffic": {
    "kind": "hotspot",
    "rate": 0.15,
    "hot_frac": 0.3
  },
  "warmup": 5000,
  "measure": 20000,
  "drain": 40000,
  "seed": 1,
  "step_mode": "activity"
}
`,
	},
	{
		name: "flag -rate",
		old:  "-rate 0.2",
		new:  []string{"-set", "traffic.rate=0.2"},
		dump: `{
  "arch": "3DM",
  "traffic": {
    "kind": "ur",
    "rate": 0.2
  },
  "warmup": 5000,
  "measure": 20000,
  "drain": 40000,
  "seed": 1,
  "step_mode": "activity"
}
`,
	},
	{
		name: "flag -short",
		old:  "-short 0.5",
		new:  []string{"-set", "traffic.short_frac=0.5"},
		dump: `{
  "arch": "3DM",
  "traffic": {
    "kind": "ur",
    "rate": 0.15,
    "short_frac": 0.5
  },
  "warmup": 5000,
  "measure": 20000,
  "drain": 40000,
  "seed": 1,
  "step_mode": "activity"
}
`,
	},
	{
		name: "flag -workload",
		old:  "-traffic trace -workload barnes",
		new:  []string{"-set", `traffic={"kind":"trace","workload":"barnes","trace_cycles":20000}`},
		dump: `{
  "arch": "3DM",
  "traffic": {
    "kind": "trace",
    "workload": "barnes",
    "trace_cycles": 20000
  },
  "warmup": 5000,
  "measure": 20000,
  "drain": 40000,
  "seed": 1,
  "step_mode": "activity"
}
`,
	},
	{
		name: "flag -tracefile",
		old:  "-traffic replay -tracefile t.trace",
		new:  []string{"-set", `traffic={"kind":"replay","trace_file":"t.trace"}`},
		dump: `{
  "arch": "3DM",
  "traffic": {
    "kind": "replay",
    "trace_file": "t.trace"
  },
  "warmup": 5000,
  "measure": 20000,
  "drain": 40000,
  "seed": 1,
  "step_mode": "activity"
}
`,
	},
	{
		name: "flag -hotfrac",
		old:  "-traffic hotspot -hotfrac 0.5",
		new:  []string{"-set", `traffic={"kind":"hotspot","rate":0.15}`, "-set", "traffic.hot_frac=0.5"},
		dump: `{
  "arch": "3DM",
  "traffic": {
    "kind": "hotspot",
    "rate": 0.15,
    "hot_frac": 0.5
  },
  "warmup": 5000,
  "measure": 20000,
  "drain": 40000,
  "seed": 1,
  "step_mode": "activity"
}
`,
	},
	{
		name: "flag -algorithm",
		old:  "-traffic collective -algorithm tree-broadcast",
		new:  []string{"-set", "warmup=0", "-set", `traffic={"kind":"collective","collective":{"algorithm":"ring-allreduce","iterations":1}}`, "-set", "traffic.collective.algorithm=tree-broadcast"},
		dump: `{
  "arch": "3DM",
  "traffic": {
    "kind": "collective",
    "collective": {
      "algorithm": "tree-broadcast",
      "iterations": 1
    }
  },
  "warmup": 0,
  "measure": 20000,
  "drain": 40000,
  "seed": 1,
  "step_mode": "activity"
}
`,
	},
	{
		name: "flag -ranks",
		old:  "-traffic collective -ranks 16",
		new:  []string{"-set", "warmup=0", "-set", `traffic={"kind":"collective","collective":{"algorithm":"ring-allreduce","iterations":1}}`, "-set", "traffic.collective.participants=16"},
		dump: `{
  "arch": "3DM",
  "traffic": {
    "kind": "collective",
    "collective": {
      "algorithm": "ring-allreduce",
      "participants": 16,
      "iterations": 1
    }
  },
  "warmup": 0,
  "measure": 20000,
  "drain": 40000,
  "seed": 1,
  "step_mode": "activity"
}
`,
	},
	{
		name: "flag -iters",
		old:  "-traffic collective -iters 4",
		new:  []string{"-set", "warmup=0", "-set", `traffic={"kind":"collective","collective":{"algorithm":"ring-allreduce","iterations":1}}`, "-set", "traffic.collective.iterations=4"},
		dump: `{
  "arch": "3DM",
  "traffic": {
    "kind": "collective",
    "collective": {
      "algorithm": "ring-allreduce",
      "iterations": 4
    }
  },
  "warmup": 0,
  "measure": 20000,
  "drain": 40000,
  "seed": 1,
  "step_mode": "activity"
}
`,
	},
	{
		name: "flag -msgflits",
		old:  "-traffic collective -msgflits 8",
		new:  []string{"-set", "warmup=0", "-set", `traffic={"kind":"collective","collective":{"algorithm":"ring-allreduce","iterations":1}}`, "-set", "traffic.collective.message_flits=8"},
		dump: `{
  "arch": "3DM",
  "traffic": {
    "kind": "collective",
    "collective": {
      "algorithm": "ring-allreduce",
      "message_flits": 8,
      "iterations": 1
    }
  },
  "warmup": 0,
  "measure": 20000,
  "drain": 40000,
  "seed": 1,
  "step_mode": "activity"
}
`,
	},
	{
		name: "flag -warmup",
		old:  "-warmup 500",
		new:  []string{"-set", "warmup=500"},
		dump: `{
  "arch": "3DM",
  "traffic": {
    "kind": "ur",
    "rate": 0.15
  },
  "warmup": 500,
  "measure": 20000,
  "drain": 40000,
  "seed": 1,
  "step_mode": "activity"
}
`,
	},
	{
		name: "flag -measure",
		old:  "-measure 1000",
		new:  []string{"-set", "measure=1000", "-set", "drain=2000"},
		dump: `{
  "arch": "3DM",
  "traffic": {
    "kind": "ur",
    "rate": 0.15
  },
  "warmup": 5000,
  "measure": 1000,
  "drain": 2000,
  "seed": 1,
  "step_mode": "activity"
}
`,
	},
	{
		name: "flag -seed",
		old:  "-seed 7",
		new:  []string{"-set", "seed=7"},
		dump: `{
  "arch": "3DM",
  "traffic": {
    "kind": "ur",
    "rate": 0.15
  },
  "warmup": 5000,
  "measure": 20000,
  "drain": 40000,
  "seed": 7,
  "step_mode": "activity"
}
`,
	},
	{
		name: "flag -stepmode",
		old:  "-stepmode checked",
		new:  []string{"-set", "step_mode=checked"},
		dump: `{
  "arch": "3DM",
  "traffic": {
    "kind": "ur",
    "rate": 0.15
  },
  "warmup": 5000,
  "measure": 20000,
  "drain": 40000,
  "seed": 1,
  "step_mode": "checked"
}
`,
	},
	{
		name: "flag -shards",
		old:  "-shards 4",
		new:  []string{"-set", "shards=4"},
		dump: `{
  "arch": "3DM",
  "traffic": {
    "kind": "ur",
    "rate": 0.15
  },
  "warmup": 5000,
  "measure": 20000,
  "drain": 40000,
  "seed": 1,
  "step_mode": "activity",
  "shards": 4
}
`,
	},
	{
		name: "flag -chips",
		old:  "-chips 2x2/4x4+express",
		new:  []string{"-set", `chips={"chips_x":2,"chips_y":2,"nodes_x":4,"nodes_y":4,"express":true}`},
		dump: `{
  "arch": "3DM",
  "traffic": {
    "kind": "ur",
    "rate": 0.15
  },
  "warmup": 5000,
  "measure": 20000,
  "drain": 40000,
  "seed": 1,
  "step_mode": "activity",
  "chips": {
    "chips_x": 2,
    "chips_y": 2,
    "nodes_x": 4,
    "nodes_y": 4,
    "express": true
  }
}
`,
	},
	{
		name: "flag -d2d",
		old:  "-chips 2x2/4x4 -d2d 8:4",
		new:  []string{"-set", "chips.chips_x=2", "-set", "chips.chips_y=2", "-set", "chips.nodes_x=4", "-set", "chips.nodes_y=4", "-set", "chips.d2d_latency=8", "-set", "chips.d2d_ser_cycles=4"},
		dump: `{
  "arch": "3DM",
  "traffic": {
    "kind": "ur",
    "rate": 0.15
  },
  "warmup": 5000,
  "measure": 20000,
  "drain": 40000,
  "seed": 1,
  "step_mode": "activity",
  "chips": {
    "chips_x": 2,
    "chips_y": 2,
    "nodes_x": 4,
    "nodes_y": 4,
    "d2d_latency": 8,
    "d2d_ser_cycles": 4
  }
}
`,
	},
	{
		name: "flag -shutdown",
		old:  "-shutdown",
		new:  []string{},
		dump: `{
  "arch": "3DM",
  "traffic": {
    "kind": "ur",
    "rate": 0.15
  },
  "warmup": 5000,
  "measure": 20000,
  "drain": 40000,
  "seed": 1,
  "step_mode": "activity"
}
`,
	},
	{
		name: "flag -qos",
		old:  "-qos",
		new:  []string{"-set", "qos_priority=true"},
		dump: `{
  "arch": "3DM",
  "traffic": {
    "kind": "ur",
    "rate": 0.15
  },
  "warmup": 5000,
  "measure": 20000,
  "drain": 40000,
  "seed": 1,
  "step_mode": "activity",
  "qos_priority": true
}
`,
	},
	{
		name: "flag -spec",
		old:  "-spec",
		new:  []string{"-set", "spec_sa=true"},
		dump: `{
  "arch": "3DM",
  "traffic": {
    "kind": "ur",
    "rate": 0.15
  },
  "warmup": 5000,
  "measure": 20000,
  "drain": 40000,
  "seed": 1,
  "step_mode": "activity",
  "spec_sa": true
}
`,
	},
	{
		name: "flag -lookahead",
		old:  "-lookahead",
		new:  []string{"-set", "lookahead_rc=true"},
		dump: `{
  "arch": "3DM",
  "traffic": {
    "kind": "ur",
    "rate": 0.15
  },
  "warmup": 5000,
  "measure": 20000,
  "drain": 40000,
  "seed": 1,
  "step_mode": "activity",
  "lookahead_rc": true
}
`,
	},
	{
		name: "flag -matrix-arb",
		old:  "-matrix-arb",
		new:  []string{"-set", "matrix_arb=true"},
		dump: `{
  "arch": "3DM",
  "traffic": {
    "kind": "ur",
    "rate": 0.15
  },
  "warmup": 5000,
  "measure": 20000,
  "drain": 40000,
  "seed": 1,
  "step_mode": "activity",
  "matrix_arb": true
}
`,
	},
	{
		name: "flag -obswindow",
		old:  "-obswindow 500",
		new:  []string{"-set", "observe.window=500"},
		dump: `{
  "arch": "3DM",
  "traffic": {
    "kind": "ur",
    "rate": 0.15
  },
  "warmup": 5000,
  "measure": 20000,
  "drain": 40000,
  "seed": 1,
  "step_mode": "activity",
  "observe": {
    "window": 500
  }
}
`,
	},
	{
		name: "ci chiplet, README, EXPERIMENTS ext-chiplet",
		old:  "-chips 2x2/4x4+express -d2d 8:4 -traffic ur -rate 0.05 -warmup 500 -measure 2000",
		new:  []string{"-set", `chips={"chips_x":2,"chips_y":2,"nodes_x":4,"nodes_y":4,"d2d_latency":8,"d2d_ser_cycles":4,"express":true}`, "-set", "traffic.rate=0.05", "-set", "warmup=500", "-set", "measure=2000", "-set", "drain=4000"},
		dump: `{
  "arch": "3DM",
  "traffic": {
    "kind": "ur",
    "rate": 0.05
  },
  "warmup": 500,
  "measure": 2000,
  "drain": 4000,
  "seed": 1,
  "step_mode": "activity",
  "chips": {
    "chips_x": 2,
    "chips_y": 2,
    "nodes_x": 4,
    "nodes_y": 4,
    "d2d_latency": 8,
    "d2d_ser_cycles": 4,
    "express": true
  }
}
`,
	},
	{
		name: "ci collective",
		old:  "-arch 2DB -traffic collective -algorithm tree-broadcast -ranks 16 -iters 2 -measure 20000 -steptable",
		new:  []string{"-set", "arch=2DB", "-set", "warmup=0", "-set", `traffic={"kind":"collective","collective":{"algorithm":"tree-broadcast","participants":16,"iterations":2}}`, "-steptable"},
		dump: `{
  "arch": "2DB",
  "traffic": {
    "kind": "collective",
    "collective": {
      "algorithm": "tree-broadcast",
      "participants": 16,
      "iterations": 2
    }
  },
  "warmup": 0,
  "measure": 20000,
  "drain": 40000,
  "seed": 1,
  "step_mode": "activity"
}
`,
	},
	{
		name: "ci round trip",
		old:  "-arch 3DM-E -traffic ur -rate 0.1 -measure 1000 -dump",
		new:  []string{"-set", "arch=3DM-E", "-set", "traffic.rate=0.1", "-set", "measure=1000", "-set", "drain=2000", "-dump"},
		dump: `{
  "arch": "3DM-E",
  "traffic": {
    "kind": "ur",
    "rate": 0.1
  },
  "warmup": 5000,
  "measure": 1000,
  "drain": 2000,
  "seed": 1,
  "step_mode": "activity"
}
`,
	},
	{
		name: "ci observability, verify skill",
		old:  "-arch 3DM -traffic ur -rate 0.15 -warmup 500 -measure 2000 -trace run.jsonl -series occ.csv",
		new:  []string{"-set", "warmup=500", "-set", "measure=2000", "-set", "drain=4000", "-trace", "run.jsonl", "-series", "occ.csv"},
		dump: `{
  "arch": "3DM",
  "traffic": {
    "kind": "ur",
    "rate": 0.15
  },
  "warmup": 500,
  "measure": 2000,
  "drain": 4000,
  "seed": 1,
  "step_mode": "activity",
  "observe": {}
}
`,
	},
	{
		name: "ci observability GOMAXPROCS=1",
		old:  "-arch 3DM -traffic ur -rate 0.15 -warmup 500 -measure 2000 -trace run1.jsonl",
		new:  []string{"-set", "warmup=500", "-set", "measure=2000", "-set", "drain=4000", "-trace", "run1.jsonl"},
		dump: `{
  "arch": "3DM",
  "traffic": {
    "kind": "ur",
    "rate": 0.15
  },
  "warmup": 500,
  "measure": 2000,
  "drain": 4000,
  "seed": 1,
  "step_mode": "activity",
  "observe": {}
}
`,
	},
	{
		name: "ci span",
		old:  "-arch 3DM -traffic ur -rate 0.15 -warmup 500 -measure 2000 -attrib stages.csv",
		new:  []string{"-set", "warmup=500", "-set", "measure=2000", "-set", "drain=4000", "-attrib", "stages.csv"},
		dump: `{
  "arch": "3DM",
  "traffic": {
    "kind": "ur",
    "rate": 0.15
  },
  "warmup": 500,
  "measure": 2000,
  "drain": 4000,
  "seed": 1,
  "step_mode": "activity",
  "observe": {
    "spans": true
  }
}
`,
	},
	{
		name: "ci serve",
		old:  "-arch 3DM -traffic ur -rate 0.1 -measure 3000000 -shards 4 -dump",
		new:  []string{"-set", "traffic.rate=0.1", "-set", "measure=3000000", "-set", "drain=6000000", "-set", "shards=4", "-dump"},
		dump: `{
  "arch": "3DM",
  "traffic": {
    "kind": "ur",
    "rate": 0.1
  },
  "warmup": 5000,
  "measure": 3000000,
  "drain": 6000000,
  "seed": 1,
  "step_mode": "activity",
  "shards": 4
}
`,
	},
	{
		name: "ci engine",
		old:  "-arch 3DM -traffic ur -rate 0.15 -warmup 500 -measure 2000 -shards 4 -trace eng-run.jsonl -progress -enginestats -enginejson eng.json",
		new:  []string{"-set", "warmup=500", "-set", "measure=2000", "-set", "drain=4000", "-set", "shards=4", "-trace", "eng-run.jsonl", "-progress", "-enginestats", "-enginejson", "eng.json"},
		dump: `{
  "arch": "3DM",
  "traffic": {
    "kind": "ur",
    "rate": 0.15
  },
  "warmup": 500,
  "measure": 2000,
  "drain": 4000,
  "seed": 1,
  "step_mode": "activity",
  "shards": 4,
  "observe": {
    "engine": true
  }
}
`,
	},
	{
		name: "ci engine bare",
		old:  "-arch 3DM -traffic ur -rate 0.15 -warmup 500 -measure 2000 -shards 4 -trace eng-bare.jsonl",
		new:  []string{"-set", "warmup=500", "-set", "measure=2000", "-set", "drain=4000", "-set", "shards=4", "-trace", "eng-bare.jsonl"},
		dump: `{
  "arch": "3DM",
  "traffic": {
    "kind": "ur",
    "rate": 0.15
  },
  "warmup": 500,
  "measure": 2000,
  "drain": 4000,
  "seed": 1,
  "step_mode": "activity",
  "shards": 4,
  "observe": {}
}
`,
	},
	{
		name: "README shards",
		old:  "-arch 3DM -traffic ur -rate 0.2 -shards=4",
		new:  []string{"-set", "traffic.rate=0.2", "-set", "shards=4"},
		dump: `{
  "arch": "3DM",
  "traffic": {
    "kind": "ur",
    "rate": 0.2
  },
  "warmup": 5000,
  "measure": 20000,
  "drain": 40000,
  "seed": 1,
  "step_mode": "activity",
  "shards": 4
}
`,
	},
	{
		name: "README auto shards",
		old:  "-arch 3DM -traffic ur -rate 0.2 -shards=-1",
		new:  []string{"-set", "traffic.rate=0.2", "-set", "shards=-1"},
		dump: `{
  "arch": "3DM",
  "traffic": {
    "kind": "ur",
    "rate": 0.2
  },
  "warmup": 5000,
  "measure": 20000,
  "drain": 40000,
  "seed": 1,
  "step_mode": "activity",
  "shards": -1
}
`,
	},
	{
		name: "README chiplet",
		old:  "-chips 2x2/4x4 -d2d 4 -traffic ur -rate 0.1",
		new:  []string{"-set", `chips={"chips_x":2,"chips_y":2,"nodes_x":4,"nodes_y":4,"d2d_latency":4}`, "-set", "traffic.rate=0.1"},
		dump: `{
  "arch": "3DM",
  "traffic": {
    "kind": "ur",
    "rate": 0.1
  },
  "warmup": 5000,
  "measure": 20000,
  "drain": 40000,
  "seed": 1,
  "step_mode": "activity",
  "chips": {
    "chips_x": 2,
    "chips_y": 2,
    "nodes_x": 4,
    "nodes_y": 4,
    "d2d_latency": 4
  }
}
`,
	},
	{
		name: "README collective",
		old:  "-arch 2DB -traffic collective -algorithm ring-allreduce -iters 4 -measure 100000",
		new:  []string{"-set", "arch=2DB", "-set", "warmup=0", "-set", "measure=100000", "-set", "drain=200000", "-set", `traffic={"kind":"collective","collective":{"algorithm":"ring-allreduce","iterations":4}}`},
		dump: `{
  "arch": "2DB",
  "traffic": {
    "kind": "collective",
    "collective": {
      "algorithm": "ring-allreduce",
      "iterations": 4
    }
  },
  "warmup": 0,
  "measure": 100000,
  "drain": 200000,
  "seed": 1,
  "step_mode": "activity"
}
`,
	},
	{
		name: "EXPERIMENTS ext-collective",
		old:  "-arch 2DB -traffic collective -algorithm ring-allreduce -iters 4 -measure 100000 -steptable",
		new:  []string{"-set", "arch=2DB", "-set", "warmup=0", "-set", "measure=100000", "-set", "drain=200000", "-set", `traffic={"kind":"collective","collective":{"algorithm":"ring-allreduce","iterations":4}}`, "-steptable"},
		dump: `{
  "arch": "2DB",
  "traffic": {
    "kind": "collective",
    "collective": {
      "algorithm": "ring-allreduce",
      "iterations": 4
    }
  },
  "warmup": 0,
  "measure": 100000,
  "drain": 200000,
  "seed": 1,
  "step_mode": "activity"
}
`,
	},
	{
		name: "README single run",
		old:  "-arch 3DM-E -traffic ur -rate 0.2",
		new:  []string{"-set", "arch=3DM-E", "-set", "traffic.rate=0.2"},
		dump: `{
  "arch": "3DM-E",
  "traffic": {
    "kind": "ur",
    "rate": 0.2
  },
  "warmup": 5000,
  "measure": 20000,
  "drain": 40000,
  "seed": 1,
  "step_mode": "activity"
}
`,
	},
	{
		name: "README trace workload",
		old:  "-arch 3DM -traffic trace -workload tpcw -stepmode checked -seed 7",
		new:  []string{"-set", `traffic={"kind":"trace","workload":"tpcw","trace_cycles":20000}`, "-set", "step_mode=checked", "-set", "seed=7"},
		dump: `{
  "arch": "3DM",
  "traffic": {
    "kind": "trace",
    "workload": "tpcw",
    "trace_cycles": 20000
  },
  "warmup": 5000,
  "measure": 20000,
  "drain": 40000,
  "seed": 7,
  "step_mode": "checked"
}
`,
	},
	{
		name: "README -dump sample",
		old:  "-arch 3DM -traffic hotspot -rate 0.1 -measure 1000 -dump",
		new:  []string{"-set", `traffic={"kind":"hotspot","rate":0.1,"hot_frac":0.3}`, "-set", "measure=1000", "-set", "drain=2000", "-dump"},
		dump: `{
  "arch": "3DM",
  "traffic": {
    "kind": "hotspot",
    "rate": 0.1,
    "hot_frac": 0.3
  },
  "warmup": 5000,
  "measure": 1000,
  "drain": 2000,
  "seed": 1,
  "step_mode": "activity"
}
`,
	},
	{
		name: "README sweep",
		old:  "-arch 2DB -traffic ur -rate 0.1 -dump",
		new:  []string{"-set", "arch=2DB", "-set", "traffic.rate=0.1", "-dump"},
		dump: `{
  "arch": "2DB",
  "traffic": {
    "kind": "ur",
    "rate": 0.1
  },
  "warmup": 5000,
  "measure": 20000,
  "drain": 40000,
  "seed": 1,
  "step_mode": "activity"
}
`,
	},
	{
		name: "README observability",
		old:  "-arch 3DM -traffic ur -rate 0.15 -trace run.jsonl -series occ.csv",
		new:  []string{"-trace", "run.jsonl", "-series", "occ.csv"},
		dump: `{
  "arch": "3DM",
  "traffic": {
    "kind": "ur",
    "rate": 0.15
  },
  "warmup": 5000,
  "measure": 20000,
  "drain": 40000,
  "seed": 1,
  "step_mode": "activity",
  "observe": {}
}
`,
	},
	{
		name: "README span",
		old:  "-arch 3DM -traffic ur -rate 0.15 -attrib stages.csv",
		new:  []string{"-attrib", "stages.csv"},
		dump: `{
  "arch": "3DM",
  "traffic": {
    "kind": "ur",
    "rate": 0.15
  },
  "warmup": 5000,
  "measure": 20000,
  "drain": 40000,
  "seed": 1,
  "step_mode": "activity",
  "observe": {
    "spans": true
  }
}
`,
	},
	{
		name: "README engine",
		old:  "-arch 3DM -traffic ur -rate 0.15 -shards 4 -progress -enginestats -enginejson engine.json",
		new:  []string{"-set", "shards=4", "-progress", "-enginestats", "-enginejson", "engine.json"},
		dump: `{
  "arch": "3DM",
  "traffic": {
    "kind": "ur",
    "rate": 0.15
  },
  "warmup": 5000,
  "measure": 20000,
  "drain": 40000,
  "seed": 1,
  "step_mode": "activity",
  "shards": 4,
  "observe": {
    "engine": true
  }
}
`,
	},
	{
		name: "verify skill default",
		old:  "",
		new:  []string{},
		dump: `{
  "arch": "3DM",
  "traffic": {
    "kind": "ur",
    "rate": 0.15
  },
  "warmup": 5000,
  "measure": 20000,
  "drain": 40000,
  "seed": 1,
  "step_mode": "activity"
}
`,
	},
	{
		name: "verify skill sharded",
		old:  "-arch 2DB -chips 1x1/16x16 -rate 0.10 -shards 2",
		new:  []string{"-set", "arch=2DB", "-set", `chips={"chips_x":1,"chips_y":1,"nodes_x":16,"nodes_y":16}`, "-set", "traffic.rate=0.10", "-set", "shards=2"},
		dump: `{
  "arch": "2DB",
  "traffic": {
    "kind": "ur",
    "rate": 0.1
  },
  "warmup": 5000,
  "measure": 20000,
  "drain": 40000,
  "seed": 1,
  "step_mode": "activity",
  "shards": 2,
  "chips": {
    "chips_x": 1,
    "chips_y": 1,
    "nodes_x": 16,
    "nodes_y": 16
  }
}
`,
	},
	{
		name: "verify skill sequential",
		old:  "-arch 2DB -chips 1x1/16x16 -rate 0.10 -shards 1",
		new:  []string{"-set", "arch=2DB", "-set", `chips={"chips_x":1,"chips_y":1,"nodes_x":16,"nodes_y":16}`, "-set", "traffic.rate=0.10", "-set", "shards=1"},
		dump: `{
  "arch": "2DB",
  "traffic": {
    "kind": "ur",
    "rate": 0.1
  },
  "warmup": 5000,
  "measure": 20000,
  "drain": 40000,
  "seed": 1,
  "step_mode": "activity",
  "shards": 1,
  "chips": {
    "chips_x": 1,
    "chips_y": 1,
    "nodes_x": 16,
    "nodes_y": 16
  }
}
`,
	},
	{
		name: "verify skill observability",
		old:  "-arch 3DM -traffic ur -rate 0.15 -warmup 500 -measure 2000 -trace run.jsonl",
		new:  []string{"-set", "warmup=500", "-set", "measure=2000", "-set", "drain=4000", "-trace", "run.jsonl"},
		dump: `{
  "arch": "3DM",
  "traffic": {
    "kind": "ur",
    "rate": 0.15
  },
  "warmup": 500,
  "measure": 2000,
  "drain": 4000,
  "seed": 1,
  "step_mode": "activity",
  "observe": {}
}
`,
	},
}

func TestRespelledInvocationsDumpTheSameScenario(t *testing.T) {
	for _, row := range respelled {
		t.Run(row.name, func(t *testing.T) {
			out, errOut, code := run(t, append(row.new, "-dump")...)
			if code != 0 {
				t.Fatalf("mirasim %q -dump exited %d: %s", row.new, code, errOut)
			}
			if out != row.dump {
				t.Errorf("mirasim %q -dump (was: mirasim %s) printed\n%s\nwant\n%s", row.new, row.old, out, row.dump)
			}
		})
	}
}

// TestDefaultIsTheGoldenTraceScenario pins the built-in default to the
// scenario whose trace digest internal/obs commits: the CI observability
// smoke records it with these windows, and -trace adds the empty
// observe block.
func TestDefaultIsTheGoldenTraceScenario(t *testing.T) {
	want, err := os.ReadFile("../../internal/obs/testdata/trace_3dm.json")
	if err != nil {
		t.Fatal(err)
	}
	out, errOut, code := run(t, "-set", "warmup=500", "-set", "measure=2000", "-set", "drain=4000", "-trace", "run.jsonl", "-dump")
	if code != 0 || out != string(want) {
		t.Errorf("exit %d, dump\n%s\nwant\n%s%s", code, out, want, errOut)
	}
}

// writeScenarios stores scs as a -scenario file and returns its path.
func writeScenarios(t *testing.T, scs any) string {
	t.Helper()
	data, err := json.Marshal(scs)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sc.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestUsageErrors(t *testing.T) {
	file := writeScenarios(t, []scenario.Scenario{{Arch: "2DB", Traffic: scenario.Traffic{Kind: "ur", Rate: 0.1}, Measure: 100}})
	type usageCase struct {
		name string
		args []string
		want string
	}
	cases := []usageCase{
		{"unknown key", []string{"-set", "shard=4"}, `unknown field "shard"`},
		{"unknown nested key", []string{"-set", "traffic.rat=0.1"}, `unknown field "rat"`},
		{"mistyped value", []string{"-set", "traffic.rate=fast"}, "traffic.rate"},
		{"missing =", []string{"-set", "warmup"}, `"warmup" is not key=value`},
		{"edit under a non-object", []string{"-set", "arch.x=1"}, "arch is not an object"},
		{"forgotten -set", []string{"arch=3DM-E"}, `unexpected argument "arch=3DM-E"`},
		{"collective keeps the default warm-up", []string{"-set", `traffic={"kind":"collective","collective":{"algorithm":"ring-allreduce"}}`}, "set warmup to 0"},
	}
	for _, f := range []string{"-trace=x", "-series=x", "-attrib=x", "-steptable", "-enginestats", "-enginejson=x"} {
		name, _, _ := strings.Cut(f, "=")
		cases = append(cases, usageCase{"batch " + name, []string{"-scenario", file, f}, name + " applies to a single run"})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out, errOut, code := run(t, append(c.args, "-dump")...)
			if code != 2 || !strings.Contains(errOut, c.want) || out != "" {
				t.Errorf("mirasim %q: exit %d, stderr %q, stdout %q; want exit 2 naming %q", c.args, code, errOut, out, c.want)
			}
		})
	}
}

// TestScenarioFileEdits: -set and -progress apply to every scenario of a
// -scenario file, and -dump prints the edited batch instead of running it.
func TestScenarioFileEdits(t *testing.T) {
	base := scenario.Scenario{Arch: "2DB", Traffic: scenario.Traffic{Kind: "ur", Rate: 0.1}, Measure: 100}
	other := base
	other.Arch = "3DM-E"
	out, errOut, code := run(t, "-scenario", writeScenarios(t, []scenario.Scenario{base, other}), "-set", "shards=2", "-progress", "-dump")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	var got []scenario.Scenario
	if err := json.Unmarshal([]byte(out), &got); err != nil {
		t.Fatalf("dump is not a scenario array: %v\n%s", err, out)
	}
	if len(got) != 2 || got[0].Arch != "2DB" || got[1].Arch != "3DM-E" {
		t.Fatalf("dumped batch = %+v", got)
	}
	for i, sc := range got {
		if sc.Shards != 2 || sc.Observe == nil || !sc.Observe.Engine {
			t.Errorf("scenario %d = %+v, want shards 2 and observe.engine", i, sc)
		}
	}

	// A single-object file dumps as an object, ready to be read back.
	out, errOut, code = run(t, "-scenario", writeScenarios(t, base), "-set", "shards=2", "-dump")
	if code != 0 || !strings.Contains(out, `"shards": 2`) || !strings.HasPrefix(out, "{") {
		t.Errorf("exit %d, dump\n%s%s", code, out, errOut)
	}
}

package noc

import (
	"context"
	"math/rand"
	"testing"

	"mira/internal/topology"
)

// bimodalGen issues request/response pairs at the given aggregate rate.
func bimodalGen(rate float64) Generator {
	return GeneratorFunc(func(cycle int64, rng *rand.Rand, specs []Spec) []Spec {
		for i := 0; i < 36; i++ {
			if rng.Float64() >= rate/5.0 { // 5 flits per pair
				continue
			}
			a := topology.NodeID(i)
			b := topology.NodeID(rng.Intn(35))
			if b >= a {
				b++
			}
			specs = append(specs,
				Spec{Src: a, Dst: b, Size: 1, Class: Control},
				Spec{Src: b, Dst: a, Size: 4, Class: Data})
		}
		return specs
	})
}

func runQoS(t *testing.T, qos bool) Result {
	t.Helper()
	cfg := cfg2D(2)
	cfg.Policy = ByClass
	cfg.QoSPriority = qos
	net := NewNetwork(cfg)
	s := NewSim(net, bimodalGen(0.50)) // near saturation: SA contention dominates
	s.Params = SimParams{Warmup: 500, Measure: 4000, DrainMax: 30000}
	res := s.Run(context.Background())
	if res.Ejected != res.Generated {
		t.Fatalf("qos=%v lost packets: %v", qos, res.String())
	}
	if err := net.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return res
}

// QoS priority must reduce control-class latency under load without
// starving the data class.
func TestQoSPriorityHelpsControl(t *testing.T) {
	off := runQoS(t, false)
	on := runQoS(t, true)
	ctrlOff := off.PerClass[Control].AvgLatency
	ctrlOn := on.PerClass[Control].AvgLatency
	if ctrlOn >= ctrlOff {
		t.Errorf("QoS should cut control latency: %.2f vs %.2f", ctrlOn, ctrlOff)
	}
	dataOn := on.PerClass[Data].AvgLatency
	dataOff := off.PerClass[Data].AvgLatency
	// Data pays a modest penalty, never more than 2x.
	if dataOn > 2*dataOff {
		t.Errorf("QoS starves data: %.2f vs %.2f", dataOn, dataOff)
	}
}

// In-flight packets always progress: a long data packet mid-transmission
// is not preempted by a control storm (no mid-stream starvation).
func TestQoSNoMidStreamStarvation(t *testing.T) {
	cfg := cfg2D(2)
	cfg.Policy = ByClass
	cfg.QoSPriority = true
	net := NewNetwork(cfg)
	var dataDone bool
	net.SetEjectHandler(func(p *Packet) {
		if p.Class == Data {
			dataDone = true
		}
	})
	// One long data packet, then a continuous control storm sharing its
	// path (0 -> 5 along row 0).
	if _, err := net.Enqueue(Spec{Src: 0, Dst: 5, Size: 8, Class: Data}); err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < 800; cycle++ {
		if cycle%2 == 0 {
			if _, err := net.Enqueue(Spec{Src: 1, Dst: 5, Size: 1, Class: Control}); err != nil {
				t.Fatal(err)
			}
		}
		net.Step()
		if dataDone {
			return
		}
	}
	t.Fatalf("data packet starved by control storm")
}

package atpg

import (
	"fmt"
	"math/rand"
	"testing"

	"cghti/internal/gen"
	"cghti/internal/netlist"
	"cghti/internal/sim"
)

// referencePlanes evaluates the whole circuit from the engine's current
// input assignment with sim.EvalGate3, independently of the engine's
// cone order and event queue: the good plane, and the faulty plane with
// site forced to stuck.
func referencePlanes(e *Engine, site netlist.GateID, stuck sim.V3) (good, faulty []sim.V3) {
	n := e.n
	eval := func(site netlist.GateID, sv sim.V3) []sim.V3 {
		vals := make([]sim.V3, len(n.Gates))
		for _, id := range e.topo {
			g := &n.Gates[id]
			var v sim.V3
			switch g.Type {
			case netlist.Input, netlist.DFF:
				v = e.assign[e.inputPos[id]]
			default:
				in := make([]sim.V3, len(g.Fanin))
				for i, f := range g.Fanin {
					in[i] = vals[f]
				}
				v = sim.EvalGate3(g.Type, in)
			}
			if id == site {
				v = sv
			}
			vals[id] = v
		}
		return vals
	}
	return eval(netlist.InvalidGate, sim.V3X), eval(site, stuck)
}

// checkPlanes compares the engine's planes with referencePlanes on
// every gate of the current cone, and the cone order with the circuit's
// topological order restricted to the cone.
func checkPlanes(e *Engine, site netlist.GateID, stuck sim.V3, propagate bool) error {
	good, faulty := referencePlanes(e, site, stuck)
	k := 0
	for _, id := range e.topo {
		if !e.relev[id] {
			continue
		}
		if k >= len(e.order) || e.order[k] != id {
			return fmt.Errorf("cone order diverges from the topological order at %d", k)
		}
		k++
		if e.good[id] != good[id] {
			return fmt.Errorf("good plane at %s = %v, full evaluation gives %v", e.n.Gates[id].Name, e.good[id], good[id])
		}
		if propagate && e.faulty[id] != faulty[id] {
			return fmt.Errorf("faulty plane at %s = %v, full evaluation gives %v", e.n.Gates[id].Name, e.faulty[id], faulty[id])
		}
	}
	if k != len(e.order) {
		return fmt.Errorf("cone order has %d gates, the cone %d", len(e.order), k)
	}
	return nil
}

// watchPlanes runs checkPlanes after every implication of e and fails
// the test at the first mismatch, before wrong planes can steer the
// search any further. what describes the current call.
func watchPlanes(t testing.TB, e *Engine, what *string) {
	e.implied = func(site netlist.GateID, stuck sim.V3, propagate bool) {
		if err := checkPlanes(e, site, stuck, propagate); err != nil {
			t.Fatalf("%s: %v", *what, err)
		}
	}
}

// TestEventPlanesMatchFullEvaluation is the differential check behind
// the event-driven implication: on random sequential circuits, after
// every implication of every Justify and Detect call — decisions,
// flips, undos, and one engine reused across targets so each cone
// replaces the last — the good and faulty planes equal a from-scratch
// evaluation of the cone.
func TestEventPlanesMatchFullEvaluation(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		n, err := gen.Random(gen.Spec{Name: "ev", PIs: 8, POs: 4, DFFs: 4, Gates: 120, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(n)
		if err != nil {
			t.Fatal(err)
		}
		e.MaxBacktracks = 64
		var what string
		watchPlanes(t, e, &what)
		rng := rand.New(rand.NewSource(seed))
		for k := 0; k < 80; k++ {
			id := netlist.GateID(rng.Intn(len(n.Gates)))
			v := uint8(rng.Intn(2))
			what = fmt.Sprintf("seed %d, call %d on %s", seed, k, n.Gates[id].Name)
			if k%2 == 0 {
				e.Justify(id, v)
			} else {
				e.Detect(id, v)
			}
		}
		if e.Stats.Backtracks == 0 {
			t.Fatalf("seed %d: no backtracks, so no flip or undo was checked", seed)
		}
	}
}

// FuzzPODEM drives one Justify or Detect call on a random circuit of at
// most 12 combinational inputs. Every implication must leave the planes
// equal to a full evaluation, and the verdict must match exhaustive
// enumeration: a Success cube proves itself, Untestable means no
// assignment exists, and an unbounded budget never aborts.
func FuzzPODEM(f *testing.F) {
	f.Add(int64(1), uint16(17), uint8(1), false)
	f.Add(int64(2), uint16(40), uint8(0), true)
	f.Add(int64(7), uint16(3), uint8(1), true)
	f.Add(int64(11), uint16(65), uint8(0), false)
	f.Fuzz(func(t *testing.T, seed int64, target uint16, v uint8, detect bool) {
		rng := rand.New(rand.NewSource(seed))
		spec := gen.Spec{
			Name:  "fz",
			PIs:   1 + rng.Intn(8),
			POs:   1 + rng.Intn(4),
			DFFs:  rng.Intn(5),
			Gates: 1 + rng.Intn(60),
			Seed:  seed,
		}
		n, err := gen.Random(spec)
		if err != nil {
			t.Skip(err)
		}
		if len(n.CombInputs()) > 12 {
			t.Skip("too wide for exhaustive enumeration")
		}
		e, err := NewEngine(n)
		if err != nil {
			t.Fatal(err)
		}
		e.MaxBacktracks = 1 << 20
		id := netlist.GateID(int(target) % len(n.Gates))
		v &= 1
		what := fmt.Sprintf("%+v target %s", spec, n.Gates[id].Name)
		watchPlanes(t, e, &what)
		if detect {
			cube, res := e.Detect(id, v)
			switch truth := exhaustiveDetectable(t, n, id, v); {
			case res == Abort:
				t.Fatalf("%s s-a-%d: abort with an unbounded budget", what, v)
			case res == Success && !truth:
				t.Fatalf("%s s-a-%d: detected an undetectable fault", what, v)
			case res == Untestable && truth:
				t.Fatalf("%s s-a-%d: missed a detectable fault", what, v)
			case res == Success:
				verifyDetects(t, n, cube, id, v, rng)
			}
			return
		}
		cube, res := e.Justify(id, v)
		switch truth := exhaustiveJustifiable(t, n, id, v); {
		case res == Abort:
			t.Fatalf("%s=%d: abort with an unbounded budget", what, v)
		case res == Success && !truth:
			t.Fatalf("%s=%d: justified but no assignment exists", what, v)
		case res == Untestable && truth:
			t.Fatalf("%s=%d: untestable but an assignment exists", what, v)
		case res == Success:
			verifyJustified(t, n, e, cube, id, v)
		}
	})
}

package gen

import (
	"fmt"
	"math/rand"

	"cghti/internal/netlist"
)

// Spec describes the shape of a generated pseudo-random circuit.
type Spec struct {
	// Name names the circuit.
	Name string
	// PIs, POs, DFFs and Gates are the target counts. Gates counts
	// combinational cells (DFFs excluded). POs is a minimum: leftover
	// fanout-free nets that cannot be folded back into the logic are
	// promoted to outputs so no logic dangles.
	PIs, POs, DFFs, Gates int
	// MaxFanin bounds gate arity (default 4; minimum 2).
	MaxFanin int
	// Seed makes the circuit deterministic.
	Seed int64
}

// Random generates a cone-structured pseudo-random circuit.
//
// The generator is tuned so generated circuits have the statistical
// properties the paper's algorithms depend on: real logic depth (fanins
// are biased toward recently created nets, which grows chains instead of
// a flat two-level soup), mixed gate arity with a tail of 3- and 4-input
// AND/OR-family gates (which create low-probability nets, i.e. rare-node
// candidates), and full-scan DFF state (DFF outputs are pseudo-PIs).
func Random(spec Spec) (*netlist.Netlist, error) {
	if spec.PIs < 1 {
		return nil, fmt.Errorf("gen: spec needs at least 1 PI")
	}
	if spec.Gates < 1 {
		return nil, fmt.Errorf("gen: spec needs at least 1 gate")
	}
	if spec.POs > spec.Gates {
		return nil, fmt.Errorf("gen: spec asks for %d POs from %d gates", spec.POs, spec.Gates)
	}
	if spec.MaxFanin < 2 {
		spec.MaxFanin = 4
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	n := netlist.New(spec.Name)

	// Sources: PIs then DFFs (data inputs wired at the end).
	for i := 0; i < spec.PIs; i++ {
		n.MustAddGate(fmt.Sprintf("pi%d", i), netlist.Input)
	}
	for i := 0; i < spec.DFFs; i++ {
		n.MustAddGate(fmt.Sprintf("ff%d", i), netlist.DFF)
	}

	// signals lists every net that can drive a fanin, in creation order.
	signals := make([]netlist.GateID, 0, spec.PIs+spec.DFFs+spec.Gates)
	for i := range n.Gates {
		signals = append(signals, netlist.GateID(i))
	}

	pickFanin := func(count int) []netlist.GateID {
		count = min(count, len(signals)) // fanins are distinct
		picked := make([]netlist.GateID, 0, count)
		used := map[netlist.GateID]bool{}
		for len(picked) < count {
			var cand netlist.GateID
			switch {
			case rng.Float64() < 0.40 && len(signals) > 8:
				// Locality: bias toward the most recent half of nets,
				// building depth.
				lo := len(signals) / 2
				cand = signals[lo+rng.Intn(len(signals)-lo)]
			case rng.Float64() < 0.5:
				// Prefer a net that is still unused so logic does not dangle.
				cand = signals[rng.Intn(len(signals))]
				for tries := 0; tries < 4; tries++ {
					if len(n.Gates[cand].Fanout) == 0 {
						break
					}
					cand = signals[rng.Intn(len(signals))]
				}
			default:
				cand = signals[rng.Intn(len(signals))]
			}
			if used[cand] {
				continue
			}
			used[cand] = true
			picked = append(picked, cand)
		}
		return picked
	}

	for i := 0; i < spec.Gates; i++ {
		t, arity := randomGate(rng, spec.MaxFanin)
		id := n.MustAddGate(fmt.Sprintf("g%d", i), t)
		for _, f := range pickFanin(arity) {
			n.Connect(f, id)
		}
		signals = append(signals, id)
	}

	// Wire DFF data inputs, preferring unused nets at decent depth.
	logicStart := spec.PIs + spec.DFFs
	pickLogic := func(preferUnused bool) netlist.GateID {
		for tries := 0; tries < 16; tries++ {
			cand := signals[logicStart+rng.Intn(len(signals)-logicStart)]
			if !preferUnused || len(n.Gates[cand].Fanout) == 0 {
				return cand
			}
		}
		return signals[logicStart+rng.Intn(len(signals)-logicStart)]
	}
	for i := 0; i < spec.DFFs; i++ {
		d := n.MustLookup(fmt.Sprintf("ff%d", i))
		n.Connect(pickLogic(true), d)
	}

	// Primary outputs: fanout-free nets first (deepest first), then —
	// if the circuit is "too connected" — random logic nets.
	var unused []netlist.GateID
	for _, id := range signals[logicStart:] {
		if len(n.Gates[id].Fanout) == 0 && !n.Gates[id].IsPO {
			unused = append(unused, id)
		}
	}
	rng.Shuffle(len(unused), func(a, b int) { unused[a], unused[b] = unused[b], unused[a] })
	pos := 0
	for _, id := range unused {
		if pos >= spec.POs {
			break
		}
		n.MarkPO(id)
		pos++
	}
	for pos < spec.POs {
		id := pickLogic(false)
		if !n.Gates[id].IsPO {
			n.MarkPO(id)
			pos++
		}
	}
	// Remaining fanout-free nets are folded back into the logic as extra
	// fanins of strictly deeper gates (keeps PO count at the published
	// value and keeps every cone alive). Only nets with no deeper
	// consumer available are promoted to extra POs.
	if err := n.Levelize(); err != nil {
		return nil, err
	}
	var wideable []netlist.GateID
	for _, id := range signals[logicStart:] {
		switch n.Gates[id].Type {
		case netlist.And, netlist.Nand, netlist.Or, netlist.Nor, netlist.Xor, netlist.Xnor:
			if len(n.Gates[id].Fanin) <= spec.MaxFanin {
				wideable = append(wideable, id)
			}
		}
	}
	for _, id := range unused {
		if len(n.Gates[id].Fanout) > 0 || n.Gates[id].IsPO {
			continue
		}
		attached := false
		lvl := n.Gates[id].Level
		for tries := 0; tries < 32 && len(wideable) > 0; tries++ {
			g := wideable[rng.Intn(len(wideable))]
			if n.Gates[g].Level > lvl && len(n.Gates[g].Fanin) <= spec.MaxFanin {
				n.Connect(id, g)
				attached = true
				break
			}
		}
		if !attached {
			n.MarkPO(id)
		}
	}

	if err := n.Levelize(); err != nil {
		return nil, err
	}
	return n, nil
}

// randomGate draws a gate type and arity. The distribution approximates
// ISCAS gate mixes: NAND/NOR-heavy with a tail of wide AND/OR gates and
// some XOR/inverters.
func randomGate(rng *rand.Rand, maxFanin int) (netlist.GateType, int) {
	// Inverting 2-input gates (NAND/NOR) pull signal probabilities back
	// toward 0.5 along a path, which is what keeps real ISCAS circuits
	// at ~24% rare nodes (θ=20%); wide AND/OR gates create the rare
	// tail. The mix below reproduces that balance on the generated
	// stand-ins (see EXPERIMENTS.md, Figure 2).
	r := rng.Float64()
	var t netlist.GateType
	switch {
	case r < 0.30:
		t = netlist.Nand
	case r < 0.38:
		t = netlist.And
	case r < 0.60:
		t = netlist.Nor
	case r < 0.66:
		t = netlist.Or
	case r < 0.78:
		t = netlist.Not
	case r < 0.90:
		t = netlist.Xor
	case r < 0.96:
		t = netlist.Xnor
	default:
		t = netlist.Buf
	}
	switch t {
	case netlist.Not, netlist.Buf:
		return t, 1
	}
	arity := 2
	a := rng.Float64()
	switch {
	case a < 0.88:
		arity = 2
	case a < 0.97:
		arity = 3
	default:
		arity = 4
	}
	if arity > maxFanin {
		arity = maxFanin
	}
	return t, arity
}

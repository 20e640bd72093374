package trojan

import (
	"context"
	"fmt"
	"math/rand"

	"cghti/internal/atpg"
	"cghti/internal/chaos"
	"cghti/internal/netlist"
	"cghti/internal/obs"
	"cghti/internal/rare"
	"cghti/internal/scoap"
	"cghti/internal/sim"
	"cghti/internal/stage"
)

// instancesCounter resolves the insertion counter against the registry
// carried by ctx, so per-run scoped registries attribute each splice to
// their own run (the process default otherwise).
func instancesCounter(ctx context.Context) *obs.Counter {
	r := obs.FromContext(ctx)
	if r == obs.Default() {
		return cntInstancesDefault
	}
	return r.Counter("trojan.instances_inserted")
}

var cntInstancesDefault = obs.NewCounter("trojan.instances_inserted")

// PayloadKind selects the trojan's effect once triggered.
type PayloadKind int

const (
	// PayloadFlip XORs the trigger output into a victim net, inverting
	// it while the trojan is active (the classic TRIT-style functional
	// payload; makes the effect observable downstream of the victim).
	PayloadFlip PayloadKind = iota
	// PayloadLeakToOutput adds a new primary output driven by
	// XOR(victim, trigger): a covert-channel style payload that leaks an
	// internal net when the trojan is idle and corrupts the leak when
	// active. It does not modify functional paths.
	PayloadLeakToOutput
	// PayloadForce pins the victim net to a constant while the trojan is
	// active (OR with the trigger for active-high: a denial-of-service
	// payload that jams downstream logic at 1).
	PayloadForce
)

// String names the payload kind.
func (p PayloadKind) String() string {
	switch p {
	case PayloadFlip:
		return "flip"
	case PayloadLeakToOutput:
		return "leak"
	case PayloadForce:
		return "force"
	}
	return fmt.Sprintf("PayloadKind(%d)", int(p))
}

// InsertSpec parameterizes instance insertion.
type InsertSpec struct {
	// Trigger construction parameters.
	Trigger TriggerSpec
	// Payload selects the effect (default PayloadFlip).
	Payload PayloadKind
	// Victim optionally pins the payload net by name; empty = choose a
	// random loop-safe victim.
	Victim string
	// Prefix names the added gates (default "ht"); instance i gets
	// "<prefix><i>_" names.
	Prefix string
	// Seed drives victim selection and trigger-type randomness.
	Seed int64
}

func (s InsertSpec) withDefaults() InsertSpec {
	if s.Prefix == "" {
		s.Prefix = "ht"
	}
	return s
}

// Instance describes one inserted trojan.
type Instance struct {
	// Index is the instance number used in gate names.
	Index int
	// Trigger is the generated trigger logic.
	Trigger *Trigger
	// TriggerOut is the name of the net that fires the payload.
	TriggerOut string
	// PayloadGate is the name of the payload XOR/XNOR gate.
	PayloadGate string
	// Victim is the name of the net the payload taps.
	Victim string
	// Payload records the payload kind.
	Payload PayloadKind
	// Cube is the merged activation cube (from the clique); filling its
	// X bits arbitrarily yields a vector that fires the trigger.
	Cube atpg.Cube
	// AddedGates lists every gate name added to the netlist.
	AddedGates []string
}

// InsertInstance builds trigger logic over the clique nodes and splices
// it into a clone of n. nodes must be a compatible set (a clique) and
// cube its merged activation cube (recorded on the instance for
// downstream consumers; pass the zero Cube if unknown). index
// distinguishes multiple instances inserted into the same base netlist
// (it prefixes gate names).
func InsertInstance(n *netlist.Netlist, nodes []rare.Node, cube atpg.Cube, index int, spec InsertSpec) (*netlist.Netlist, *Instance, error) {
	return InsertInstanceContext(context.Background(), n, nodes, cube, index, spec)
}

// InsertInstanceContext is InsertInstance with cooperative cancellation,
// checked between victim-candidate trials (each trial clones and
// re-levelizes the netlist — the expensive part of insertion). On
// cancellation it returns ctx's error; there is no partial result, an
// instance either splices completely or not at all.
func InsertInstanceContext(ctx context.Context, n *netlist.Netlist, nodes []rare.Node, cube atpg.Cube, index int, spec InsertSpec) (*netlist.Netlist, *Instance, error) {
	spec = spec.withDefaults()
	if len(nodes) == 0 {
		return nil, nil, fmt.Errorf("trojan: empty trigger-node set")
	}
	instancesCounter(ctx).Inc()
	tspec := spec.Trigger
	tspec.Seed = spec.Seed ^ int64(uint64(index)*0x9e3779b97f4a7c15)
	trig, err := BuildTrigger(nodes, tspec)
	if err != nil {
		return nil, nil, err
	}
	if err := trig.Verify(); err != nil {
		return nil, nil, err
	}

	out := n.Clone()
	out.Name = fmt.Sprintf("%s_%s%d", n.Name, spec.Prefix, index)
	inst := &Instance{
		Index:   index,
		Trigger: trig,
		Payload: spec.Payload,
		Cube:    cube,
	}
	prefix := fmt.Sprintf("%s%d_", spec.Prefix, index)

	// Materialize trigger gates bottom-up (children have smaller proto
	// indices, so a forward scan over t.Gates sees children first).
	gateIDs := make([]netlist.GateID, len(trig.Gates))
	for i := range trig.Gates {
		tg := &trig.Gates[i]
		name := fmt.Sprintf("%strig%d", prefix, i)
		id, err := out.AddGate(name, tg.Type)
		if err != nil {
			return nil, nil, err
		}
		inst.AddedGates = append(inst.AddedGates, name)
		for _, leaf := range tg.LeafInputs {
			out.Connect(leaf.ID, id)
		}
		for _, k := range tg.ChildGates {
			out.Connect(gateIDs[k], id)
		}
		gateIDs[i] = id
	}
	trigOut := gateIDs[trig.Root]
	inst.TriggerOut = out.Gates[trigOut].Name

	// Choose a victim net: loop-safe (no trigger node in its transitive
	// fanout), observable, and — when the activation cube is known —
	// spot-checked so the payload's effect actually reaches an output
	// under the activation condition. Without that last check a trigger
	// condition deep in the victim's own cone can mask the flip on every
	// activating vector, producing a functional no-op "trojan" (TC > 0
	// but DC ≡ 0).
	rng := rand.New(rand.NewSource(spec.Seed ^ (int64(index)+1)*0x517cc1b727220a95))
	candidates, err := victimCandidates(n, nodes, spec, rng, 8)
	if err != nil {
		return nil, nil, err
	}
	var (
		best     *netlist.Netlist
		bestInst Instance
	)
	ctxDone := ctx.Done()
	for _, victim := range candidates {
		select {
		case <-ctxDone:
			return nil, nil, ctx.Err()
		default:
		}
		if err := chaos.Hit(stage.Insert, 0); err != nil {
			return nil, nil, err
		}
		trial := out.Clone()
		trialInst := *inst
		if err := wirePayload(trial, &trialInst, trig, victim, trigOut, prefix, spec); err != nil {
			return nil, nil, err
		}
		if err := trial.Levelize(); err != nil {
			return nil, nil, fmt.Errorf("trojan: insertion created a cycle: %w", err)
		}
		if best == nil {
			// Fallback if every candidate fails the spot-check below.
			best, bestInst = trial, trialInst
		}
		if spec.Payload == PayloadLeakToOutput || cube.Len() == 0 || cube.CareCount() == 0 ||
			payloadObservable(n, trial, &trialInst, cube, rng) {
			best, bestInst = trial, trialInst
			break
		}
	}
	if best == nil {
		return nil, nil, fmt.Errorf("trojan: no loop-safe victim net exists")
	}
	*inst = bestInst
	return best, inst, nil
}

// wirePayload splices the payload gate for the chosen victim into out.
func wirePayload(out *netlist.Netlist, inst *Instance, trig *Trigger, victim, trigOut netlist.GateID, prefix string, spec InsertSpec) error {
	inst.Victim = out.Gates[victim].Name
	payloadName := prefix + "payload"
	// Pick the payload cell so the idle trigger value passes the victim
	// through unchanged: XOR/XNOR invert on activation (flip/leak),
	// OR/AND jam to a constant on activation (force).
	activeHigh := trig.Spec.ActivationValue() == 1
	var ptype netlist.GateType
	switch spec.Payload {
	case PayloadForce:
		if activeHigh {
			ptype = netlist.Or
		} else {
			ptype = netlist.And
		}
	default:
		if activeHigh {
			ptype = netlist.Xor
		} else {
			ptype = netlist.Xnor
		}
	}
	payload, err := out.AddGate(payloadName, ptype)
	if err != nil {
		return err
	}
	inst.PayloadGate = payloadName
	inst.AddedGates = append(inst.AddedGates, payloadName)

	switch spec.Payload {
	case PayloadFlip, PayloadForce:
		// Steal the victim's fanouts, then feed the payload from the
		// victim and the trigger.
		fanouts := append([]netlist.GateID(nil), out.Gates[victim].Fanout...)
		for _, f := range fanouts {
			if err := out.ReplaceFanin(f, victim, payload); err != nil {
				return err
			}
		}
		out.Connect(victim, payload)
		out.Connect(trigOut, payload)
		if out.Gates[victim].IsPO {
			if err := out.ReplacePOMarker(victim, payload); err != nil {
				return err
			}
		}
	case PayloadLeakToOutput:
		out.Connect(victim, payload)
		out.Connect(trigOut, payload)
		out.MarkPO(payload)
	default:
		return fmt.Errorf("trojan: unknown payload kind %v", spec.Payload)
	}
	return nil
}

// payloadObservable simulates a handful of activating vectors (random
// completions of the cube) and reports whether any produces an output
// difference against the golden netlist. The vectors are simulated
// side by side, one bit lane each.
func payloadObservable(golden, infected *netlist.Netlist, inst *Instance, cube atpg.Cube, rng *rand.Rand) bool {
	const trials = 16
	inputs := golden.CombInputs()
	goldenOuts := golden.CombOutputs()
	infectedOuts := infected.CombOutputs()
	words := make([]uint64, len(inputs))
	for trial := 0; trial < trials; trial++ {
		filled := cube.Fill(rng)
		for i := range inputs {
			if filled[i] {
				words[i] |= 1 << trial
			}
		}
	}
	gv, err := sim.EvalWords(golden, inputs, words)
	if err != nil {
		return false
	}
	iv, err := sim.EvalWords(infected, inputs, words)
	if err != nil {
		return false
	}
	for i := range goldenOuts {
		if (gv[goldenOuts[i]]^iv[infectedOuts[i]])&(1<<trials-1) != 0 {
			return true
		}
	}
	return false
}

// victimCandidates returns up to max victim nets to try, each loop-safe
// (no trigger node in its transitive fanout) and observable (finite
// SCOAP CO). A pinned spec.Victim is validated and returned alone.
func victimCandidates(orig *netlist.Netlist, nodes []rare.Node, spec InsertSpec, rng *rand.Rand, max int) ([]netlist.GateID, error) {
	trigSet := make(map[netlist.GateID]bool, len(nodes))
	for _, nd := range nodes {
		trigSet[nd.ID] = true
	}
	measures, err := scoap.Compute(orig)
	if err != nil {
		return nil, err
	}
	loopSafe := func(v netlist.GateID) bool {
		if spec.Payload == PayloadLeakToOutput {
			return true // new PO only; no functional rewiring
		}
		tfo := orig.TransitiveFanout(v)
		for id := range trigSet {
			if tfo[id] {
				return false
			}
		}
		return true
	}
	usable := func(v netlist.GateID) bool {
		g := &orig.Gates[v]
		if g.Type == netlist.DFF || g.Type.IsSource() {
			return false
		}
		if trigSet[v] {
			return false
		}
		if len(g.Fanout) == 0 && !g.IsPO {
			return false
		}
		if measures.CO[v] >= scoap.Inf {
			return false // structurally unobservable: payload would be a no-op
		}
		return true
	}

	if spec.Victim != "" {
		v, ok := orig.Lookup(spec.Victim)
		if !ok {
			return nil, fmt.Errorf("trojan: victim net %q not found", spec.Victim)
		}
		if !usable(v) || !loopSafe(v) {
			return nil, fmt.Errorf("trojan: victim net %q unusable (source, trigger node, or loop)", spec.Victim)
		}
		return []netlist.GateID{v}, nil
	}
	// Random search, then a deterministic sweep to fill the list.
	numOrig := orig.NumGates()
	var out []netlist.GateID
	taken := map[netlist.GateID]bool{}
	add := func(v netlist.GateID) {
		if !taken[v] && usable(v) && loopSafe(v) {
			taken[v] = true
			out = append(out, v)
		}
	}
	for tries := 0; tries < 16*max && len(out) < max; tries++ {
		add(netlist.GateID(rng.Intn(numOrig)))
	}
	for i := 0; i < numOrig && len(out) < max; i++ {
		add(netlist.GateID(i))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("trojan: no loop-safe victim net exists")
	}
	return out, nil
}

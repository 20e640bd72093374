package atpg

import (
	"fmt"
	"slices"

	"cghti/internal/netlist"
	"cghti/internal/obs"
	"cghti/internal/scoap"
	"cghti/internal/sim"
)

// meters holds the package's metric handles. Engine.Stats remains the
// per-engine view; these aggregate across all engines (including
// worker-pool engines) registered against the same registry — the
// process default, or a per-run scoped registry (Engine.SetRegistry),
// so concurrent runs attribute PODEM work to their own reports.
type meters struct {
	calls      *obs.Counter
	backtracks *obs.Counter
	aborts     *obs.Counter
	untestable *obs.Counter
	implies    *obs.Counter
}

func metersFor(r *obs.Registry) *meters {
	if r == nil || r == obs.Default() {
		return defaultMeters
	}
	return newMeters(r)
}

func newMeters(r *obs.Registry) *meters {
	return &meters{
		calls:      r.Counter("atpg.podem_calls"),
		backtracks: r.Counter("atpg.podem_backtracks"),
		aborts:     r.Counter("atpg.podem_aborts"),
		untestable: r.Counter("atpg.podem_untestable"),
		implies:    r.Counter("atpg.podem_implications"),
	}
}

var defaultMeters = newMeters(obs.Default())

// Result classifies the outcome of a PODEM run.
type Result int

const (
	// Success: a cube satisfying the objective was found.
	Success Result = iota
	// Untestable: the search space was exhausted — no cube exists.
	Untestable
	// Abort: the backtrack limit was hit before a conclusion.
	Abort
)

// String names the result.
func (r Result) String() string {
	switch r {
	case Success:
		return "success"
	case Untestable:
		return "untestable"
	case Abort:
		return "abort"
	}
	return fmt.Sprintf("Result(%d)", int(r))
}

// DefaultMaxBacktracks bounds the PODEM decision tree per target.
const DefaultMaxBacktracks = 4000

// Engine runs PODEM against one netlist. It precomputes SCOAP measures
// (backtrace guidance), the topological order, and the
// distance-to-observation map used to steer D-frontier selection.
//
// Implication is event-driven: each run evaluates its cone once, and
// every later decision, flip or undo re-evaluates only the fanout of
// the inputs that changed, level by level, stopping wherever a value
// does not change. The planes come out exactly as a full re-evaluation
// of the cone would leave them, so the search takes the same decisions.
//
// An Engine is not safe for concurrent use; create one per goroutine.
type Engine struct {
	n        *netlist.Netlist
	inputs   []netlist.GateID
	inputPos []int32 // by GateID: position in inputs, -1 for other gates
	topo     []netlist.GateID
	topoPos  []int32 // by GateID: index in topo
	level    []int32 // by GateID: logic level (sources 0)
	outs     []netlist.GateID
	isOut    []bool // by GateID: gate is in outs
	sc       *scoap.Measures
	obsDist  []int32 // min #gates to an observable net; -1 if none

	// MaxBacktracks bounds the search; DefaultMaxBacktracks if zero.
	MaxBacktracks int
	// NaiveBacktrace disables SCOAP guidance (first-X-input selection);
	// used by the ablation benchmark.
	NaiveBacktrace bool

	// scratch
	good    []sim.V3
	faulty  []sim.V3
	assign  []sim.V3         // by input position
	relev   []bool           // gates relevant to the current target
	order   []netlist.GateID // topo order restricted to relev
	obsList []netlist.GateID // observable outputs within relev
	coneBuf []netlist.GateID // cone collection scratch

	// event-driven implication
	fresh   bool               // the next implication evaluates the whole cone
	dirty   []int32            // input positions assigned since the last implication
	queued  []bool             // by GateID: waiting in a level bucket
	buckets [][]netlist.GateID // gates to re-evaluate, by level
	lo, hi  int32              // occupied bucket range

	// D-frontier and X-path scratch
	frontier []netlist.GateID
	xstack   []netlist.GateID
	seen     []uint32 // by GateID: visit stamp of the last X-path search
	stamp    uint32

	// Stats accumulates counters across calls.
	Stats Stats

	met *meters

	// implied, if set, runs after every implication (tests compare the
	// planes against a full re-evaluation there).
	implied func(site netlist.GateID, stuck sim.V3, propagate bool)
}

// Stats counts PODEM work, for the time-complexity analysis benches.
type Stats struct {
	Calls      int64
	Backtracks int64
	Implies    int64
}

// NewEngine prepares a PODEM engine for n.
func NewEngine(n *netlist.Netlist) (*Engine, error) {
	topo, err := n.TopoOrder()
	if err != nil {
		return nil, err
	}
	sc, err := scoap.Compute(n)
	if err != nil {
		return nil, err
	}
	num := len(n.Gates)
	inputs := n.CombInputs()
	e := &Engine{
		n:             n,
		inputs:        inputs,
		inputPos:      make([]int32, num),
		topo:          topo,
		topoPos:       make([]int32, num),
		level:         make([]int32, num),
		outs:          n.CombOutputs(),
		isOut:         make([]bool, num),
		sc:            sc,
		MaxBacktracks: DefaultMaxBacktracks,
		good:          make([]sim.V3, num),
		faulty:        make([]sim.V3, num),
		assign:        make([]sim.V3, len(inputs)),
		relev:         make([]bool, num),
		queued:        make([]bool, num),
		seen:          make([]uint32, num),
		met:           defaultMeters,
	}
	for i := range e.inputPos {
		e.inputPos[i] = -1
	}
	for i, id := range inputs {
		e.inputPos[id] = int32(i)
	}
	var maxLevel int32
	for i, id := range topo {
		e.topoPos[id] = int32(i)
		l := n.Gates[id].Level
		e.level[id] = l
		if l > maxLevel {
			maxLevel = l
		}
	}
	e.buckets = make([][]netlist.GateID, maxLevel+1)
	for _, id := range e.outs {
		e.isOut[id] = true
	}
	e.computeObsDist()
	return e, nil
}

// SetRegistry points the engine's PODEM counters at r, so a per-run
// scoped registry attributes the engine's work to that run (nil or
// obs.Default() restores the process-wide handles).
func (e *Engine) SetRegistry(r *obs.Registry) { e.met = metersFor(r) }

// InputIDs returns the ordered combinational input list cubes are
// expressed over.
func (e *Engine) InputIDs() []netlist.GateID { return e.inputs }

// computeObsDist fills obsDist with the minimum number of fanout hops
// from each gate to an observable net (PO or DFF data input).
func (e *Engine) computeObsDist() {
	n := e.n
	e.obsDist = make([]int32, len(n.Gates))
	for i := range e.obsDist {
		e.obsDist[i] = -1
	}
	var queue []netlist.GateID
	push := func(id netlist.GateID, d int32) {
		if e.obsDist[id] == -1 || d < e.obsDist[id] {
			e.obsDist[id] = d
			queue = append(queue, id)
		}
	}
	for _, id := range e.outs {
		push(id, 0)
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		d := e.obsDist[id] + 1
		for _, f := range n.Gates[id].Fanin {
			if n.Gates[id].Type == netlist.DFF {
				continue // crossing into previous cycle
			}
			if e.obsDist[f] == -1 || d < e.obsDist[f] {
				e.obsDist[f] = d
				queue = append(queue, f)
			}
		}
	}
}

// decision is one node of the PODEM decision stack.
type decision struct {
	pos     int
	val     sim.V3
	flipped bool
}

// Justify searches for a cube that sets target to value v (0/1) in the
// fault-free circuit. This is the paper's use of PODEM: the objective for
// rare node n with rare value r is phrased as a test for n stuck-at-¬r,
// whose excitation condition is exactly n=r.
func (e *Engine) Justify(target netlist.GateID, v uint8) (Cube, Result) {
	return e.run(target, v, false)
}

// Detect searches for a test cube for the stuck-at fault site/stuckAt:
// the cube excites site to ¬stuckAt and propagates the difference to an
// observable output (PO or scan capture). Used by the ND-ATPG detection
// scheme.
func (e *Engine) Detect(site netlist.GateID, stuckAt uint8) (Cube, Result) {
	return e.run(site, stuckAt^1, true)
}

func (e *Engine) run(target netlist.GateID, want uint8, propagate bool) (Cube, Result) {
	e.Stats.Calls++
	e.met.calls.Inc()
	for i := range e.assign {
		e.assign[i] = sim.V3X
	}
	wantV := sim.V3(want & 1)
	var stuck sim.V3
	if propagate {
		stuck = sim.V3(want&1) ^ 1 // faulty plane forces the stuck value
	}

	// Trivial case: the target is itself an input.
	if pos := e.inputPos[target]; pos >= 0 {
		cube := NewCube(len(e.inputs))
		cube.Set(int(pos), wantV)
		if !propagate {
			return cube, Success
		}
		// Propagation from an input still needs the main loop; seed the
		// assignment.
		e.assign[pos] = wantV
	}

	// Restrict implication to the target's cone: justification only
	// depends on TFI(target); detection additionally needs TFO(target)
	// and the justification cones of everything on those paths. This
	// makes each implication O(cone) instead of O(circuit).
	e.prepareCone(target, propagate)
	e.fresh = true
	e.dirty = e.dirty[:0]

	var stack []decision
	backtracks := 0
	maxBT := e.MaxBacktracks
	if maxBT <= 0 {
		maxBT = DefaultMaxBacktracks
	}

	for {
		e.imply(target, stuck, propagate)

		ok, failed := e.status(target, wantV, propagate)
		if ok {
			return e.cubeFromAssign(), Success
		}
		advanced := false
		if !failed {
			if objNode, objVal, found := e.objective(target, wantV, propagate); found {
				pos, val := e.backtrace(objNode, objVal)
				stack = append(stack, decision{pos: pos, val: val})
				e.setInput(pos, val)
				advanced = true
			}
		}
		if advanced {
			continue
		}
		// Dead end: flip the deepest unflipped decision.
		for {
			if len(stack) == 0 {
				e.met.untestable.Inc()
				return Cube{}, Untestable
			}
			top := &stack[len(stack)-1]
			if !top.flipped {
				backtracks++
				e.Stats.Backtracks++
				e.met.backtracks.Inc()
				if backtracks > maxBT {
					e.met.aborts.Inc()
					return Cube{}, Abort
				}
				top.flipped = true
				top.val ^= 1
				e.setInput(top.pos, top.val)
				break
			}
			e.setInput(top.pos, sim.V3X)
			stack = stack[:len(stack)-1]
		}
	}
}

// setInput assigns input position pos and records it for the next
// implication.
func (e *Engine) setInput(pos int, v sim.V3) {
	e.assign[pos] = v
	e.dirty = append(e.dirty, int32(pos))
}

// imply brings the good (and, when propagate, faulty) plane up to date
// with the current input assignment: the whole cone on the first
// implication of a run, afterwards only the fanout of the inputs
// assigned since the last one.
func (e *Engine) imply(site netlist.GateID, stuck sim.V3, propagate bool) {
	e.Stats.Implies++
	e.met.implies.Inc()
	if e.fresh {
		e.fresh = false
		e.evalPlane(e.good, netlist.InvalidGate, sim.V3X)
		if propagate {
			e.evalPlane(e.faulty, site, stuck)
		}
	} else {
		e.propagateEvents(e.good, netlist.InvalidGate, sim.V3X)
		if propagate {
			e.propagateEvents(e.faulty, site, stuck)
		}
	}
	e.dirty = e.dirty[:0]
	if e.implied != nil {
		e.implied(site, stuck, propagate)
	}
}

// prepareCone computes the relevant gate set, the restricted evaluation
// order and the in-cone observable outputs for one PODEM run. Only the
// previous cone is cleared and only the new one ordered, so the cost
// follows the cones, not the circuit.
func (e *Engine) prepareCone(target netlist.GateID, propagate bool) {
	gates := e.n.Gates
	for _, id := range e.order {
		e.relev[id] = false
	}
	// cone doubles as the work queue of both traversals.
	cone := e.coneBuf[:0]
	e.relev[target] = true
	cone = append(cone, target)
	if propagate {
		// The fault's transitive fanout, DFFs noted but not crossed
		// (the target itself is crossed even when it is a DFF).
		for i := 0; i < len(cone); i++ {
			id := cone[i]
			if i > 0 && gates[id].Type == netlist.DFF {
				continue
			}
			for _, s := range gates[id].Fanout {
				if !e.relev[s] {
					e.relev[s] = true
					cone = append(cone, s)
				}
			}
		}
	}
	// Reverse closure under fanin (TFI), stopping at combinational
	// sources (DFF outputs are sources in the full-scan view). For
	// detection this adds every justification cone feeding the fault's
	// paths.
	for i := 0; i < len(cone); i++ {
		g := &gates[cone[i]]
		if g.Type == netlist.DFF || g.Type.IsSource() {
			continue
		}
		for _, f := range g.Fanin {
			if !e.relev[f] {
				e.relev[f] = true
				cone = append(cone, f)
			}
		}
	}
	e.coneBuf = cone

	// A small cone sorts by topological position; a large one filters
	// the circuit order, which is cheaper past a few percent of it.
	if len(cone) < len(e.topo)/32 {
		e.order = append(e.order[:0], cone...)
		pos := e.topoPos
		slices.SortFunc(e.order, func(a, b netlist.GateID) int { return int(pos[a] - pos[b]) })
	} else {
		e.order = e.order[:0]
		for _, id := range e.topo {
			if e.relev[id] {
				e.order = append(e.order, id)
			}
		}
	}
	e.obsList = e.obsList[:0]
	if propagate {
		for _, id := range e.outs {
			if e.relev[id] {
				e.obsList = append(e.obsList, id)
			}
		}
	}
}

// evalPlane evaluates the whole cone in order into vals, forcing site
// to sv.
func (e *Engine) evalPlane(vals []sim.V3, site netlist.GateID, sv sim.V3) {
	gates := e.n.Gates
	for _, id := range e.order {
		g := &gates[id]
		var v sim.V3
		switch g.Type {
		case netlist.Input, netlist.DFF:
			v = e.assign[e.inputPos[id]]
		default:
			v = eval3(g, vals)
		}
		if id == site {
			v = sv
		}
		vals[id] = v
	}
}

// propagateEvents updates vals for the inputs assigned since the last
// implication: a changed value schedules its in-cone fanout into that
// gate's level bucket, and buckets drain in ascending level, so each
// gate is evaluated once, after all of its changed fanins. A gate whose
// value does not change schedules nothing.
func (e *Engine) propagateEvents(vals []sim.V3, site netlist.GateID, sv sim.V3) {
	gates := e.n.Gates
	e.lo, e.hi = int32(len(e.buckets)), 0
	for _, p := range e.dirty {
		id := e.inputs[p]
		if !e.relev[id] {
			continue
		}
		v := e.assign[p]
		if id == site {
			v = sv
		}
		if vals[id] != v {
			vals[id] = v
			e.schedule(id)
		}
	}
	for l := e.lo; l <= e.hi; l++ {
		for _, id := range e.buckets[l] {
			e.queued[id] = false
			v := eval3(&gates[id], vals)
			if id == site {
				v = sv
			}
			if vals[id] != v {
				vals[id] = v
				e.schedule(id)
			}
		}
		e.buckets[l] = e.buckets[l][:0]
	}
}

// schedule queues the in-cone fanout of id for re-evaluation. DFFs take
// their value from the assignment, never from their data input.
func (e *Engine) schedule(id netlist.GateID) {
	gates := e.n.Gates
	for _, s := range gates[id].Fanout {
		if !e.relev[s] || e.queued[s] || gates[s].Type == netlist.DFF {
			continue
		}
		e.queued[s] = true
		l := e.level[s]
		e.buckets[l] = append(e.buckets[l], s)
		if l < e.lo {
			e.lo = l
		}
		if l > e.hi {
			e.hi = l
		}
	}
}

// eval3 is sim.EvalGate3 reading g's fanin values straight out of vals.
func eval3(g *netlist.Gate, vals []sim.V3) sim.V3 {
	switch g.Type {
	case netlist.Const0:
		return sim.V3Zero
	case netlist.Const1:
		return sim.V3One
	case netlist.Buf, netlist.DFF:
		return vals[g.Fanin[0]]
	case netlist.Not:
		return sim.Not3(vals[g.Fanin[0]])
	case netlist.And, netlist.Nand, netlist.Or, netlist.Nor:
		// cv is the controlling value: any input at cv decides the
		// output; otherwise an X input leaves it X.
		cv := sim.V3Zero
		if g.Type == netlist.Or || g.Type == netlist.Nor {
			cv = sim.V3One
		}
		acc := cv ^ 1
		for _, f := range g.Fanin {
			v := vals[f]
			if v == cv {
				acc = cv
				break
			}
			if v == sim.V3X {
				acc = sim.V3X
			}
		}
		if g.Type == netlist.Nand || g.Type == netlist.Nor {
			return sim.Not3(acc)
		}
		return acc
	case netlist.Xor, netlist.Xnor:
		acc := sim.V3Zero
		for _, f := range g.Fanin {
			v := vals[f]
			if v == sim.V3X {
				return sim.V3X
			}
			acc ^= v & 1
		}
		if g.Type == netlist.Xnor {
			return sim.Not3(acc)
		}
		return acc
	}
	panic(fmt.Sprintf("atpg: eval3 on %v", g.Type))
}

// status reports whether the objective is met (ok) or provably violated
// on this branch (failed).
func (e *Engine) status(target netlist.GateID, want sim.V3, propagate bool) (ok, failed bool) {
	gv := e.good[target]
	if !propagate {
		if gv == want {
			return true, false
		}
		if gv != sim.V3X {
			return false, true
		}
		return false, false
	}
	// Detection mode: excitation must hold (good plane shows want at the
	// site; the faulty plane is forced to the stuck value).
	if gv != sim.V3X && gv != want {
		return false, true // fault cannot be excited on this branch
	}
	if gv == want {
		// Excited; detected if any observable net differs definitely.
		for _, id := range e.obsList {
			g, f := e.good[id], e.faulty[id]
			if g != sim.V3X && f != sim.V3X && g != f {
				return true, false
			}
		}
		// Not yet detected: fail this branch if no D-frontier gate has an
		// X-path to an observable output.
		if !e.hasXPath(target) {
			return false, true
		}
	}
	return false, false
}

// dFrontier returns gates whose output is still undetermined in at least
// one plane but which have a propagating D (definite, differing planes)
// on some input. The slice is engine scratch, valid until the next call.
func (e *Engine) dFrontier() []netlist.GateID {
	out := e.frontier[:0]
	for _, id := range e.order {
		g := &e.n.Gates[id]
		if g.Type == netlist.DFF || g.Type.IsSource() {
			continue
		}
		if e.good[id] != sim.V3X && e.faulty[id] != sim.V3X {
			continue
		}
		for _, f := range g.Fanin {
			gv, fv := e.good[f], e.faulty[f]
			if gv != sim.V3X && fv != sim.V3X && gv != fv {
				out = append(out, id)
				break
			}
		}
	}
	e.frontier = out
	return out
}

// hasXPath reports whether some D-frontier gate (or the not-yet-excited
// site itself) can still reach an observable output through gates with
// an undetermined value.
func (e *Engine) hasXPath(site netlist.GateID) bool {
	frontier := e.dFrontier()
	if len(frontier) == 0 {
		// The site itself may still carry the D forward if undetermined
		// around it.
		frontier = append(frontier, site)
	}
	e.stamp++
	if e.stamp == 0 {
		clear(e.seen)
		e.stamp = 1
	}
	stack := append(e.xstack[:0], frontier...)
	found := false
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if e.seen[id] == e.stamp {
			continue
		}
		e.seen[id] = e.stamp
		// The observable set is obsList: the combinational outputs in
		// the cone.
		if e.isOut[id] && e.relev[id] && (e.good[id] == sim.V3X || e.faulty[id] == sim.V3X ||
			e.good[id] != e.faulty[id]) {
			found = true
			break
		}
		for _, s := range e.n.Gates[id].Fanout {
			if e.n.Gates[s].Type == netlist.DFF {
				// id feeds a scan capture point; id itself is in the
				// observable set, already handled above.
				continue
			}
			if e.good[s] == sim.V3X || e.faulty[s] == sim.V3X {
				stack = append(stack, s)
			}
		}
	}
	e.xstack = stack[:0]
	return found
}

// objective picks the next (node, value) goal.
func (e *Engine) objective(target netlist.GateID, want sim.V3, propagate bool) (netlist.GateID, sim.V3, bool) {
	if e.good[target] == sim.V3X {
		return target, want, true
	}
	if !propagate {
		return netlist.InvalidGate, sim.V3X, false
	}
	// Excited: advance the D-frontier gate closest to an observation
	// point that still has an assignable (X in the good plane) input,
	// setting that input toward the non-controlling value.
	frontier := e.dFrontier()
	var (
		bestInput netlist.GateID = netlist.InvalidGate
		bestVal   sim.V3
		bestDist  = int32(1 << 30)
	)
	for _, id := range frontier {
		d := e.obsDist[id]
		if d < 0 || d >= bestDist {
			continue
		}
		g := &e.n.Gates[id]
		cv, hasCtl := g.Type.ControllingValue()
		objVal := sim.V3Zero // XOR-family: any definite value propagates
		if hasCtl {
			objVal = sim.V3(cv) ^ 1 // non-controlling value
		}
		for _, f := range g.Fanin {
			if e.good[f] == sim.V3X {
				bestInput, bestVal, bestDist = f, objVal, d
				break
			}
		}
	}
	if bestInput != netlist.InvalidGate {
		return bestInput, bestVal, true
	}
	// Every frontier gate is definite in the good plane but still open
	// in the faulty plane: its faulty value hinges on inputs that do not
	// influence the good plane. Decide any remaining free input in the
	// fault's cone so implication can resolve the faulty plane; the
	// decision tree over these inputs keeps the search complete.
	for pos, id := range e.inputs {
		if e.assign[pos] == sim.V3X && e.relev[id] {
			return id, sim.V3Zero, true
		}
	}
	return netlist.InvalidGate, sim.V3X, false
}

// backtrace walks an objective back to an unassigned input, returning
// its position and the value to try first. It follows X-valued nets
// only; SCOAP controllabilities steer the choice unless NaiveBacktrace.
func (e *Engine) backtrace(node netlist.GateID, v sim.V3) (int, sim.V3) {
	n := e.n
	for {
		if pos := e.inputPos[node]; pos >= 0 {
			return int(pos), v
		}
		g := &n.Gates[node]
		switch g.Type {
		case netlist.Buf:
			node = g.Fanin[0]
		case netlist.Not:
			node = g.Fanin[0]
			v ^= 1
		case netlist.And, netlist.Nand, netlist.Or, netlist.Nor:
			core := v
			if g.Type.HasInversion() {
				core ^= 1
			}
			cv, _ := g.Type.ControllingValue()
			// core == ¬cv means every input must be at the
			// non-controlling value: pick the hardest X input (fail
			// fast). Otherwise one controlling input suffices: pick the
			// easiest.
			allMust := core == sim.V3(cv)^1
			node = e.pickInput(g, sim.V3(cv)^boolToV3(allMust), allMust)
			if allMust {
				v = sim.V3(cv) ^ 1
			} else {
				v = sim.V3(cv)
			}
		case netlist.Xor, netlist.Xnor:
			// Choose the cheapest X input; aim for the parity residue the
			// definite inputs leave over.
			parity := sim.V3Zero
			if g.Type == netlist.Xnor {
				parity = sim.V3One
			}
			xCount := 0
			var pick netlist.GateID = netlist.InvalidGate
			var bestCost int64 = 1 << 62
			for _, f := range g.Fanin {
				fv := e.good[f]
				if fv == sim.V3X {
					xCount++
					cost := minI64(e.sc.CC0[f], e.sc.CC1[f])
					if e.NaiveBacktrace {
						if pick == netlist.InvalidGate {
							pick = f
						}
					} else if cost < bestCost {
						bestCost, pick = cost, f
					}
				} else {
					parity ^= fv
				}
			}
			if pick == netlist.InvalidGate {
				// No X input: implication will expose the conflict; fall
				// back to the first fanin to keep the walk moving.
				pick = g.Fanin[0]
			}
			need := parity ^ v // residue this input must supply if alone
			if xCount > 1 {
				// Underdetermined: try the cheaper value first.
				if !e.NaiveBacktrace && e.sc.CC1[pick] < e.sc.CC0[pick] {
					need = sim.V3One
				} else {
					need = sim.V3Zero
				}
			}
			node, v = pick, need
		default:
			// Constants cannot be backtraced; signal by returning the
			// first input position with the requested value — implication
			// will immediately fail the branch.
			return 0, v
		}
	}
}

// pickInput selects an X-valued fanin of g; want is the value it will be
// asked for; hardest selects max-cost (all-must case) vs min-cost.
func (e *Engine) pickInput(g *netlist.Gate, want sim.V3, hardest bool) netlist.GateID {
	var pick netlist.GateID = netlist.InvalidGate
	var bestCost int64
	if hardest {
		bestCost = -1
	} else {
		bestCost = 1 << 62
	}
	for _, f := range g.Fanin {
		if e.good[f] != sim.V3X {
			continue
		}
		if e.NaiveBacktrace {
			return f
		}
		cost := e.sc.CC(f, uint8(want))
		if hardest && cost > bestCost || !hardest && cost < bestCost {
			bestCost, pick = cost, f
		}
	}
	if pick == netlist.InvalidGate {
		pick = g.Fanin[0]
	}
	return pick
}

// cubeFromAssign snapshots the current PI assignment as a cube.
func (e *Engine) cubeFromAssign() Cube {
	c := NewCube(len(e.inputs))
	for i, v := range e.assign {
		if v != sim.V3X {
			c.Set(i, v)
		}
	}
	return c
}

func boolToV3(b bool) sim.V3 {
	if b {
		return 1
	}
	return 0
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

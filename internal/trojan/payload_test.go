package trojan

import (
	"math/rand"
	"testing"

	"cghti/internal/atpg"
	"cghti/internal/netlist"
	"cghti/internal/rare"
	"cghti/internal/sim"
)

func TestInsertPayloadForce(t *testing.T) {
	n, g, clique := pipeline(t, 51)
	infected, inst, err := InsertInstance(n, clique.Nodes(g), clique.Cube, 0,
		InsertSpec{Seed: 15, Payload: PayloadForce})
	if err != nil {
		t.Fatal(err)
	}
	if err := infected.Validate(); err != nil {
		t.Fatal(err)
	}
	payload := infected.MustLookup(inst.PayloadGate)
	if got := infected.Gates[payload].Type; got != netlist.Or {
		t.Fatalf("active-high force payload is %v, want OR", got)
	}

	// Dormant: payload output equals victim on non-firing vectors.
	trig := infected.MustLookup(inst.TriggerOut)
	victim := infected.MustLookup(inst.Victim)
	rng := rand.New(rand.NewSource(2))
	checked := 0
	for v := 0; v < 200; v++ {
		in := map[netlist.GateID]uint8{}
		for _, id := range n.CombInputs() {
			in[id] = uint8(rng.Intn(2))
		}
		iv, err := sim.Eval(infected, in)
		if err != nil {
			t.Fatal(err)
		}
		if iv[trig] == 1 {
			continue
		}
		checked++
		if iv[payload] != iv[victim] {
			t.Fatal("dormant force payload altered the victim")
		}
	}
	if checked == 0 {
		t.Fatal("trigger fired on every vector")
	}

	// Active: payload jams at 1 regardless of the victim.
	filled := clique.Cube.Fill(rng)
	in := map[netlist.GateID]uint8{}
	for i, id := range g.InputIDs {
		if filled[i] {
			in[id] = 1
		} else {
			in[id] = 0
		}
	}
	iv, err := sim.Eval(infected, in)
	if err != nil {
		t.Fatal(err)
	}
	if iv[trig] != 1 {
		t.Fatal("cube did not fire")
	}
	if iv[payload] != 1 {
		t.Fatal("active force payload did not jam to 1")
	}
}

func TestInsertPayloadForceActiveLow(t *testing.T) {
	n, g, clique := pipeline(t, 52)
	infected, inst, err := InsertInstance(n, clique.Nodes(g), clique.Cube, 0,
		InsertSpec{Seed: 16, Payload: PayloadForce,
			Trigger: TriggerSpec{ActiveLow: true}})
	if err != nil {
		t.Fatal(err)
	}
	payload := infected.MustLookup(inst.PayloadGate)
	if got := infected.Gates[payload].Type; got != netlist.And {
		t.Fatalf("active-low force payload is %v, want AND", got)
	}
	// Active (trigger=0): jams at 0.
	rng := rand.New(rand.NewSource(3))
	filled := clique.Cube.Fill(rng)
	in := map[netlist.GateID]uint8{}
	for i, id := range g.InputIDs {
		if filled[i] {
			in[id] = 1
		} else {
			in[id] = 0
		}
	}
	iv, err := sim.Eval(infected, in)
	if err != nil {
		t.Fatal(err)
	}
	if iv[infected.MustLookup(inst.TriggerOut)] != 0 {
		t.Fatal("active-low cube did not fire (trigger should be 0)")
	}
	if iv[payload] != 0 {
		t.Fatal("active-low force payload did not jam to 0")
	}
}

// TestInsertExhaustiveEquivalenceSmall: on a circuit small enough to
// enumerate, the infected netlist equals the golden one on EVERY vector
// where the trigger is idle, and flips the victim's observable value on
// EVERY vector where it fires.
func TestInsertExhaustiveEquivalenceSmall(t *testing.T) {
	// Hand-built circuit with a known rare condition: y = AND(a,b,c,d)
	// fires with probability 1/16; z = XOR(e,a) is an independent
	// observable victim.
	n := netlist.New("tiny")
	var pis []netlist.GateID
	for _, name := range []string{"a", "b", "c", "d", "e"} {
		pis = append(pis, n.MustAddGate(name, netlist.Input))
	}
	y := n.MustAddGate("y", netlist.And)
	for _, p := range pis[:4] {
		n.Connect(p, y)
	}
	z := n.MustAddGate("z", netlist.Xor)
	n.Connect(pis[4], z)
	n.Connect(pis[0], z)
	n.MarkPO(y)
	n.MarkPO(z)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}

	// Single trigger node y (rare value 1), victim pinned to z.
	nodes := []rare.Node{{ID: y, RareValue: 1, Prob: 1.0 / 16}}
	cube := atpg.NewCube(len(n.CombInputs()))
	for i := 0; i < 4; i++ {
		cube.Set(i, sim.V3One)
	}
	infected, inst, err := InsertInstance(n, nodes, cube, 0,
		InsertSpec{Seed: 17, Victim: "z"})
	if err != nil {
		t.Fatal(err)
	}
	trig := infected.MustLookup(inst.TriggerOut)

	for p := 0; p < 32; p++ {
		in := map[netlist.GateID]uint8{}
		for j, id := range pis {
			in[id] = uint8(p >> uint(j) & 1)
		}
		gv, err := sim.Eval(n, in)
		if err != nil {
			t.Fatal(err)
		}
		iv, err := sim.Eval(infected, in)
		if err != nil {
			t.Fatal(err)
		}
		fires := in[pis[0]] == 1 && in[pis[1]] == 1 && in[pis[2]] == 1 && in[pis[3]] == 1
		if got := iv[trig] == 1; got != fires {
			t.Fatalf("vector %05b: trigger=%v, want %v", p, got, fires)
		}
		// PO y untouched always; PO z (now the payload) flips iff fired.
		if iv[infected.POs[0]] != gv[y] {
			t.Fatalf("vector %05b: non-victim PO changed", p)
		}
		wantZ := gv[z]
		if fires {
			wantZ ^= 1
		}
		if iv[infected.POs[1]] != wantZ {
			t.Fatalf("vector %05b: victim PO = %d, want %d (fires=%v)",
				p, iv[infected.POs[1]], wantZ, fires)
		}
	}
}

// payloadObservableScalar is the one-vector-at-a-time form of
// payloadObservable: it stops at the first vector that shows a
// difference.
func payloadObservableScalar(golden, infected *netlist.Netlist, cube atpg.Cube, rng *rand.Rand) bool {
	inputs := golden.CombInputs()
	goldenOuts := golden.CombOutputs()
	infectedOuts := infected.CombOutputs()
	in := make(map[netlist.GateID]uint8, len(inputs))
	for trial := 0; trial < 16; trial++ {
		filled := cube.Fill(rng)
		for i, id := range inputs {
			in[id] = 0
			if filled[i] {
				in[id] = 1
			}
		}
		gv, err := sim.Eval(golden, in)
		if err != nil {
			return false
		}
		iv, err := sim.Eval(infected, in)
		if err != nil {
			return false
		}
		for i := range goldenOuts {
			if gv[goldenOuts[i]] != iv[infectedOuts[i]] {
				return true
			}
		}
	}
	return false
}

// TestPayloadObservableMatchesScalar checks the lane-parallel payload
// check against the scalar one, with the clique's cube (the payload
// usually shows) and with an all-X cube (it usually does not). When
// neither sees a difference both must have drawn the same 16 vectors,
// since insertion goes on to the next victim with the same stream.
func TestPayloadObservableMatchesScalar(t *testing.T) {
	seen := map[bool]int{}
	for _, seed := range []int64{21, 51, 77} {
		n, g, clique := pipeline(t, seed)
		for index := 0; index < 4; index++ {
			infected, inst, err := InsertInstance(n, clique.Nodes(g), clique.Cube, index, InsertSpec{Seed: seed + int64(index)})
			if err != nil {
				t.Fatal(err)
			}
			for _, cube := range []atpg.Cube{clique.Cube, atpg.NewCube(clique.Cube.Len())} {
				for s := int64(0); s < 32; s++ {
					r1 := rand.New(rand.NewSource(s))
					r2 := rand.New(rand.NewSource(s))
					got := payloadObservable(n, infected, inst, cube, r1)
					want := payloadObservableScalar(n, infected, cube, r2)
					if got != want {
						t.Fatalf("seed %d instance %d stream %d: lane-parallel %v, scalar %v", seed, index, s, got, want)
					}
					if !got && r1.Int63() != r2.Int63() {
						t.Fatalf("seed %d instance %d stream %d: streams diverge after a miss", seed, index, s)
					}
					seen[got]++
				}
			}
		}
	}
	if seen[true] == 0 || seen[false] == 0 {
		t.Fatalf("outcomes %v: want both observable and unobservable cases", seen)
	}
}

// TestPayloadObservableIgnoresIdleLanes checks that only the 16 drawn
// vectors count. The infected copy differs from the golden one only on
// a=0, b=0, which the cube (a=1) never draws but the unused lanes hold.
func TestPayloadObservableIgnoresIdleLanes(t *testing.T) {
	build := func(infected bool) *netlist.Netlist {
		n := netlist.New("lanes")
		a := n.MustAddGate("a", netlist.Input)
		b := n.MustAddGate("b", netlist.Input)
		o := n.MustAddGate("o", netlist.Buf)
		n.Connect(a, o)
		if !infected {
			n.MarkPO(o)
			return n
		}
		trig := n.MustAddGate("trig", netlist.Nor)
		n.Connect(a, trig)
		n.Connect(b, trig)
		p := n.MustAddGate("p", netlist.Xor)
		n.Connect(o, p)
		n.Connect(trig, p)
		n.MarkPO(p)
		return n
	}
	golden, infected := build(false), build(true)
	cube, err := atpg.ParseCube("1X")
	if err != nil {
		t.Fatal(err)
	}
	if payloadObservable(golden, infected, nil, cube, rand.New(rand.NewSource(1))) {
		t.Fatal("a=1 cube: payload reported observable, but no drawn vector fires it")
	}
	cube, err = atpg.ParseCube("0X")
	if err != nil {
		t.Fatal(err)
	}
	if !payloadObservable(golden, infected, nil, cube, rand.New(rand.NewSource(1))) {
		t.Fatal("a=0 cube: payload not observable, but b=0 fires it")
	}
}

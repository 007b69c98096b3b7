package atpg

import (
	"math/rand"

	"repro/internal/bitvec"
	"repro/internal/fault"
	"repro/internal/netlist"
)

// Three-valued logic values.
const (
	v0 byte = 0
	v1 byte = 1
	vX byte = 2
)

// Status of a PODEM run for one fault.
type status int

const (
	statusDetected status = iota
	statusUntestable
	statusAborted
)

// effort counts the deterministic work of PODEM searches.
type effort struct {
	decisions    int64 // primary-input assignments chosen by backtrace
	backtracks   int64 // dead ends reached (the backtrack limit bounds these)
	implications int64 // gate evaluations during event propagation
}

// podem is a test generator for single stuck-at faults using the PODEM
// algorithm: decisions are made only on primary inputs, with three-valued
// event-driven implication of the good and faulty machines and trail-based
// backtracking.
//
// A search is a pure function of the fault: every piece of state a search
// reads is rebuilt by reset or keyed by a per-search epoch, so any podem
// over the same circuit returns the same status, input cube and effort for
// a fault whatever it searched before. Run relies on this to spread the
// targets of one batch over several podems, one per worker.
type podem struct {
	c     *netlist.Circuit
	order []int
	limit int // backtrack limit

	gv []byte // good machine values
	fv []byte // faulty machine values

	distPO []int // min combinational distance to a primary output
	cc0    []int // SCOAP-style 0-controllability
	cc1    []int // SCOAP-style 1-controllability
	isOut  []bool

	// X-path memoization, valid for one xpathEpoch.
	xpathMemo  []byte // 0 unknown, 1 yes, 2 no
	xpathEpoch []int32
	xpathCur   int32

	// Event propagation state (same level-bucket scheme as fsim).
	buckets    [][]int
	sched      []int32
	epoch      int32
	minLevel   int
	maxTouched int

	// Trail-based undo.
	trail   []trailEntry
	markers []int

	// Current fault.
	flt      fault.Fault
	siteGate int
	// cone is the fanout cone of the site in ascending gate ID order: the
	// only region where the D-frontier can live and the only region where
	// the faulty machine can differ from the good one. inCone is its
	// membership bitmap. Both are cached per site gate because the output
	// fault and all pin faults of a gate share them.
	cone     []int
	inCone   []bool
	coneGate int

	eff effort // work of the current search

	faninBuf []byte
}

type trailEntry struct {
	id    int32
	oldGV byte
	oldFV byte
}

type decision struct {
	pi        int // gate ID of the primary input
	value     byte
	triedBoth bool
}

func newPodem(c *netlist.Circuit, limit int) *podem {
	p := &podem{
		c:          c,
		order:      c.TopoOrder(),
		limit:      limit,
		gv:         make([]byte, c.NumGates()),
		fv:         make([]byte, c.NumGates()),
		distPO:     make([]int, c.NumGates()),
		cc0:        make([]int, c.NumGates()),
		cc1:        make([]int, c.NumGates()),
		isOut:      make([]bool, c.NumGates()),
		xpathMemo:  make([]byte, c.NumGates()),
		xpathEpoch: make([]int32, c.NumGates()),
		buckets:    make([][]int, c.MaxLevel()+1),
		sched:      make([]int32, c.NumGates()),
		inCone:     make([]bool, c.NumGates()),
	}
	for _, id := range c.Outputs {
		p.isOut[id] = true
	}
	p.computeControllability()
	// Distance to the nearest primary output, for D-frontier selection.
	const inf = 1 << 30
	for i := range p.distPO {
		p.distPO[i] = inf
	}
	queue := make([]int, 0, len(c.Outputs))
	for _, id := range c.Outputs {
		if p.distPO[id] > 0 {
			p.distPO[id] = 0
			queue = append(queue, id)
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for _, f := range c.Gates[id].Fanin {
			if p.distPO[f] > p.distPO[id]+1 {
				p.distPO[f] = p.distPO[id] + 1
				queue = append(queue, f)
			}
		}
	}
	return p
}

// computeControllability assigns SCOAP-style testability measures: cc0/cc1
// estimate the effort of driving each line to 0/1 from the primary inputs.
// They guide backtrace input selection.
func (p *podem) computeControllability() {
	for _, id := range p.order {
		g := p.c.Gates[id]
		switch g.Type {
		case netlist.Input, netlist.DFF:
			p.cc0[id], p.cc1[id] = 1, 1
		case netlist.Const0:
			p.cc0[id], p.cc1[id] = 0, 1<<28
		case netlist.Const1:
			p.cc0[id], p.cc1[id] = 1<<28, 0
		case netlist.Not:
			p.cc0[id] = p.cc1[g.Fanin[0]] + 1
			p.cc1[id] = p.cc0[g.Fanin[0]] + 1
		case netlist.Buf:
			p.cc0[id] = p.cc0[g.Fanin[0]] + 1
			p.cc1[id] = p.cc1[g.Fanin[0]] + 1
		case netlist.And, netlist.Nand:
			sum1, min0 := 1, int(^uint(0)>>1)
			for _, f := range g.Fanin {
				sum1 += p.cc1[f]
				if p.cc0[f] < min0 {
					min0 = p.cc0[f]
				}
			}
			if g.Type == netlist.And {
				p.cc1[id], p.cc0[id] = sum1, min0+1
			} else {
				p.cc0[id], p.cc1[id] = sum1, min0+1
			}
		case netlist.Or, netlist.Nor:
			sum0, min1 := 1, int(^uint(0)>>1)
			for _, f := range g.Fanin {
				sum0 += p.cc0[f]
				if p.cc1[f] < min1 {
					min1 = p.cc1[f]
				}
			}
			if g.Type == netlist.Or {
				p.cc0[id], p.cc1[id] = sum0, min1+1
			} else {
				p.cc1[id], p.cc0[id] = sum0, min1+1
			}
		case netlist.Xor, netlist.Xnor:
			// Fold pairwise over the inputs.
			c0, c1 := p.cc0[g.Fanin[0]], p.cc1[g.Fanin[0]]
			for _, f := range g.Fanin[1:] {
				b0, b1 := p.cc0[f], p.cc1[f]
				n0 := minInt(c0+b0, c1+b1)
				n1 := minInt(c0+b1, c1+b0)
				c0, c1 = n0, n1
			}
			if g.Type == netlist.Xnor {
				c0, c1 = c1, c0
			}
			p.cc0[id], p.cc1[id] = c0+1, c1+1
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// cc returns the controllability cost of driving a line to val.
func (p *podem) cc(id int, val byte) int {
	if val == v1 {
		return p.cc1[id]
	}
	return p.cc0[id]
}

// eval3 computes the three-valued function of a gate type.
func eval3(t netlist.GateType, in []byte) byte {
	switch t {
	case netlist.And, netlist.Nand:
		v := v1
		for _, x := range in {
			if x == v0 {
				v = v0
				break
			}
			if x == vX {
				v = vX
			}
		}
		if t == netlist.Nand {
			return not3(v)
		}
		return v
	case netlist.Or, netlist.Nor:
		v := v0
		for _, x := range in {
			if x == v1 {
				v = v1
				break
			}
			if x == vX {
				v = vX
			}
		}
		if t == netlist.Nor {
			return not3(v)
		}
		return v
	case netlist.Xor, netlist.Xnor:
		v := v0
		for _, x := range in {
			if x == vX {
				return vX
			}
			v ^= x
		}
		if t == netlist.Xnor {
			return not3(v)
		}
		return v
	case netlist.Not:
		return not3(in[0])
	case netlist.Buf:
		return in[0]
	case netlist.Const0:
		return v0
	case netlist.Const1:
		return v1
	default:
		return vX
	}
}

func not3(v byte) byte {
	switch v {
	case v0:
		return v1
	case v1:
		return v0
	default:
		return vX
	}
}

// controlling returns the controlling input value of a gate type, or vX if
// the gate has none (XOR family).
func controlling(t netlist.GateType) byte {
	switch t {
	case netlist.And, netlist.Nand:
		return v0
	case netlist.Or, netlist.Nor:
		return v1
	default:
		return vX
	}
}

// inverts reports whether the gate type inverts the backtraced objective.
func inverts(t netlist.GateType) bool {
	switch t {
	case netlist.Nand, netlist.Nor, netlist.Not:
		return true
	default:
		return false
	}
}

// search runs PODEM for the fault. On statusDetected the primary inputs
// hold a detecting assignment until the next search; cube reads it out.
// The search never draws randomness: filling the unassigned inputs is the
// caller's step (fillCube), so searches may run in any order or
// concurrently on separate podems without changing the test set.
func (p *podem) search(f fault.Fault) status {
	p.flt = f
	p.siteGate = f.Gate
	p.eff = effort{}
	if p.cone == nil || p.coneGate != f.Gate {
		for _, id := range p.cone {
			p.inCone[id] = false
		}
		p.cone = p.c.FanoutCone(f.Gate)
		for _, id := range p.cone {
			p.inCone[id] = true
		}
		p.coneGate = f.Gate
	}
	p.reset()

	var stack []decision
	for {
		if p.detected() {
			return statusDetected
		}
		objGate, objVal := p.objective()
		if objVal != vX {
			pi, val, ok := p.backtrace(objGate, objVal)
			if ok {
				p.eff.decisions++
				p.pushMarker()
				p.assign(pi, val)
				stack = append(stack, decision{pi: pi, value: val})
				continue
			}
			// No X path to a PI: treat as a dead end.
		}
		// Dead end: backtrack to the most recent decision with an untried
		// alternative.
		p.eff.backtracks++
		if p.eff.backtracks > int64(p.limit) {
			return statusAborted
		}
		flipped := false
		for len(stack) > 0 {
			d := stack[len(stack)-1]
			p.popToMarker()
			stack = stack[:len(stack)-1]
			if !d.triedBoth {
				nv := not3(d.value)
				p.pushMarker()
				p.assign(d.pi, nv)
				stack = append(stack, decision{pi: d.pi, value: nv, triedBoth: true})
				flipped = true
				break
			}
		}
		if !flipped {
			return statusUntestable
		}
	}
}

// cube copies the current three-valued primary-input assignment (v0, v1 or
// vX per input, in c.Inputs order) into dst and returns it.
func (p *podem) cube(dst []byte) []byte {
	dst = dst[:0]
	for _, id := range p.c.Inputs {
		dst = append(dst, p.gv[id])
	}
	return dst
}

// reset rebuilds the baseline three-valued state for the current fault: all
// primary inputs X, constants propagated, the fault injected. Outside the
// fault's fanout cone the faulty machine equals the good one.
func (p *podem) reset() {
	p.trail = p.trail[:0]
	p.markers = p.markers[:0]
	for _, id := range p.order {
		g := p.c.Gates[id]
		switch g.Type {
		case netlist.Input:
			p.gv[id] = vX
		default:
			p.gv[id] = p.evalGood(g)
		}
		if p.inCone[id] {
			p.fv[id] = p.evalFaulty(g)
		} else {
			p.fv[id] = p.gv[id]
		}
	}
}

func (p *podem) evalGood(g *netlist.Gate) byte {
	in := p.faninBuf[:0]
	for _, f := range g.Fanin {
		in = append(in, p.gv[f])
	}
	p.faninBuf = in
	return eval3(g.Type, in)
}

// evalFaulty computes the faulty-machine value of a gate, injecting the
// fault when the gate is the site.
func (p *podem) evalFaulty(g *netlist.Gate) byte {
	if g.ID == p.siteGate && p.flt.Pin == fault.OutputPin {
		return stuckVal(p.flt)
	}
	in := p.faninBuf[:0]
	for pin, f := range g.Fanin {
		v := p.fv[f]
		if g.ID == p.siteGate && pin == p.flt.Pin {
			v = stuckVal(p.flt)
		}
		in = append(in, v)
	}
	p.faninBuf = in
	if g.Type == netlist.Input {
		// An input gate's faulty value tracks its good value unless it is
		// the fault site (handled above).
		return p.gv[g.ID]
	}
	return eval3(g.Type, in)
}

func stuckVal(f fault.Fault) byte {
	if f.StuckAt1 {
		return v1
	}
	return v0
}

// assign sets a primary input to a binary value and propagates events.
func (p *podem) assign(pi int, val byte) {
	p.setValue(pi, val, p.faultyInputValue(pi, val))
	p.propagate(pi)
}

func (p *podem) faultyInputValue(pi int, good byte) byte {
	if pi == p.siteGate && p.flt.Pin == fault.OutputPin {
		return stuckVal(p.flt)
	}
	return good
}

func (p *podem) setValue(id int, gv, fv byte) {
	p.trail = append(p.trail, trailEntry{id: int32(id), oldGV: p.gv[id], oldFV: p.fv[id]})
	p.gv[id] = gv
	p.fv[id] = fv
}

// propagate performs level-ordered event propagation from a changed gate.
func (p *podem) propagate(from int) {
	p.epoch++
	if p.epoch == 0 {
		for i := range p.sched {
			p.sched[i] = -1
		}
		p.epoch = 1
	}
	p.minLevel = len(p.buckets)
	p.maxTouched = -1
	p.scheduleFanouts(from)
	for lvl := p.minLevel; lvl <= p.maxTouched; lvl++ {
		queue := p.buckets[lvl]
		if len(queue) == 0 {
			continue
		}
		// Fanouts sit at higher levels, so the queue does not grow while
		// it is drained: every gate in it is evaluated exactly once.
		p.eff.implications += int64(len(queue))
		for qi := 0; qi < len(queue); qi++ {
			id := queue[qi]
			g := p.c.Gates[id]
			ngv := p.evalGood(g)
			nfv := ngv
			if p.inCone[id] {
				nfv = p.evalFaulty(g)
			}
			if ngv == p.gv[id] && nfv == p.fv[id] {
				continue
			}
			p.setValue(id, ngv, nfv)
			p.scheduleFanouts(id)
		}
		p.buckets[lvl] = queue[:0]
	}
}

func (p *podem) scheduleFanouts(id int) {
	for _, fo := range p.c.Gates[id].Fanout {
		g := p.c.Gates[fo]
		if g.Type == netlist.DFF {
			continue
		}
		if p.sched[fo] == p.epoch {
			continue
		}
		p.sched[fo] = p.epoch
		p.buckets[g.Level] = append(p.buckets[g.Level], fo)
		if g.Level < p.minLevel {
			p.minLevel = g.Level
		}
		if g.Level > p.maxTouched {
			p.maxTouched = g.Level
		}
	}
}

func (p *podem) pushMarker() {
	p.markers = append(p.markers, len(p.trail))
}

func (p *podem) popToMarker() {
	if len(p.markers) == 0 {
		return
	}
	mark := p.markers[len(p.markers)-1]
	p.markers = p.markers[:len(p.markers)-1]
	for i := len(p.trail) - 1; i >= mark; i-- {
		e := p.trail[i]
		p.gv[e.id] = e.oldGV
		p.fv[e.id] = e.oldFV
	}
	p.trail = p.trail[:mark]
}

// detected reports whether any primary output currently carries a fault
// effect (binary and different in the two machines).
func (p *podem) detected() bool {
	for _, id := range p.c.Outputs {
		g, f := p.gv[id], p.fv[id]
		if g != vX && f != vX && g != f {
			return true
		}
	}
	return false
}

// objective returns the next (line, value) goal: activate the fault if it is
// not yet activated, otherwise advance the D-frontier gate closest to a
// primary output. It returns value vX when no goal exists (dead end).
func (p *podem) objective() (int, byte) {
	want := not3(stuckVal(p.flt)) // line value that activates the fault
	actLine := p.siteGate
	if p.flt.Pin != fault.OutputPin {
		actLine = p.c.Gates[p.siteGate].Fanin[p.flt.Pin]
	}
	switch p.gv[actLine] {
	case vX:
		return actLine, want
	case stuckVal(p.flt):
		return 0, vX // good value equals the stuck value: no divergence possible
	}

	// Fault activated. Find the best D-frontier gate: output X in either
	// machine with a divergent binary input pair and an X path to a primary
	// output (without an X path the divergence can never be observed, so
	// the branch is pruned immediately).
	p.xpathCur++
	best, bestDist := -1, int(^uint(0)>>1)
	for _, id := range p.cone {
		if p.gv[id] != vX && p.fv[id] != vX {
			continue
		}
		g := p.c.Gates[id]
		if g.Type == netlist.Input {
			continue
		}
		diverges := false
		for pin, f := range g.Fanin {
			gvv, fvv := p.gv[f], p.fv[f]
			if id == p.siteGate && pin == p.flt.Pin {
				fvv = stuckVal(p.flt)
			}
			if gvv != vX && fvv != vX && gvv != fvv {
				diverges = true
				break
			}
		}
		if diverges && p.distPO[id] < bestDist && p.xpath(id) {
			best, bestDist = id, p.distPO[id]
		}
	}
	if best < 0 {
		return 0, vX
	}
	// Objective: set an X side input of the frontier gate to the
	// non-controlling value so the divergence passes through. All side
	// inputs must eventually be set, so take the hardest one first (classic
	// multiple-backtrace intuition): failing early is cheaper.
	g := p.c.Gates[best]
	ctrl := controlling(g.Type)
	nonCtrl := not3(ctrl)
	if ctrl == vX {
		nonCtrl = v0 // XOR family: any binary value sensitizes
	}
	pick, pickCost := -1, -1
	for _, f := range g.Fanin {
		if p.gv[f] != vX {
			continue
		}
		cost := p.cc(f, nonCtrl)
		if cost > pickCost {
			pick, pickCost = f, cost
		}
	}
	if pick < 0 {
		return 0, vX
	}
	return pick, nonCtrl
}

// xpath reports whether gate id has a path of X-valued gates to a primary
// output (in either machine). Memoized per objective computation.
func (p *podem) xpath(id int) bool {
	if p.xpathEpoch[id] == p.xpathCur {
		return p.xpathMemo[id] == 1
	}
	p.xpathEpoch[id] = p.xpathCur
	p.xpathMemo[id] = 2 // assume no (also breaks fanout cycles defensively)
	if p.isOut[id] {
		p.xpathMemo[id] = 1
		return true
	}
	for _, fo := range p.c.Gates[id].Fanout {
		g := p.c.Gates[fo]
		if g.Type == netlist.DFF {
			continue
		}
		if p.gv[fo] != vX && p.fv[fo] != vX {
			continue
		}
		if p.xpath(fo) {
			p.xpathMemo[id] = 1
			return true
		}
	}
	return false
}

// backtrace walks an objective (line, value) backwards through X-valued
// gates to an unassigned primary input, returning the PI and the value to
// try. Input selection is guided by controllability: when one controlling
// input suffices, take the easiest; when all inputs are needed, take the
// hardest (so infeasible branches fail early).
func (p *podem) backtrace(line int, val byte) (int, byte, bool) {
	for {
		g := p.c.Gates[line]
		if g.Type == netlist.Input {
			if p.gv[line] != vX {
				return 0, 0, false
			}
			return line, val, true
		}

		var inVal byte
		var pickEasiest bool
		switch g.Type {
		case netlist.Not, netlist.Buf:
			if inverts(g.Type) {
				val = not3(val)
			}
			line = g.Fanin[0]
			continue
		case netlist.And, netlist.Nand:
			out := val
			if g.Type == netlist.Nand {
				out = not3(val)
			}
			if out == v1 {
				inVal, pickEasiest = v1, false // all inputs must be 1
			} else {
				inVal, pickEasiest = v0, true // one 0 suffices
			}
		case netlist.Or, netlist.Nor:
			out := val
			if g.Type == netlist.Nor {
				out = not3(val)
			}
			if out == v0 {
				inVal, pickEasiest = v0, false // all inputs must be 0
			} else {
				inVal, pickEasiest = v1, true // one 1 suffices
			}
		case netlist.Xor, netlist.Xnor:
			// Parity gates: any X input works; aim for its cheaper value.
			next, bestCost := -1, int(^uint(0)>>1)
			var nextVal byte
			for _, f := range g.Fanin {
				if p.gv[f] != vX {
					continue
				}
				c0, c1 := p.cc(f, v0), p.cc(f, v1)
				v, cost := byte(v0), c0
				if c1 < c0 {
					v, cost = v1, c1
				}
				if cost < bestCost {
					next, nextVal, bestCost = f, v, cost
				}
			}
			if next < 0 {
				return 0, 0, false
			}
			line, val = next, nextVal
			continue
		default:
			return 0, 0, false
		}

		next, bestCost := -1, 0
		if pickEasiest {
			bestCost = int(^uint(0) >> 1)
		} else {
			bestCost = -1
		}
		for _, f := range g.Fanin {
			if p.gv[f] != vX {
				continue
			}
			cost := p.cc(f, inVal)
			if (pickEasiest && cost < bestCost) || (!pickEasiest && cost > bestCost) {
				next, bestCost = f, cost
			}
		}
		if next < 0 {
			return 0, 0, false
		}
		line, val = next, inVal
	}
}

// fillCube converts a three-valued input cube into a pattern, filling the
// unassigned (vX) inputs randomly from rng in input order.
func fillCube(cube []byte, rng *rand.Rand) bitvec.Vector {
	out := bitvec.New(len(cube))
	for i, v := range cube {
		switch v {
		case v1:
			out.SetBit(i, true)
		case v0:
		default:
			if rng.Intn(2) == 1 {
				out.SetBit(i, true)
			}
		}
	}
	return out
}

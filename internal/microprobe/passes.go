package microprobe

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"

	"micrograd/internal/isa"
	"micrograd/internal/knobs"
	"micrograd/internal/program"
)

// MinLoopSize is the smallest loop a Synthesizer builds: one body
// instruction and the loop-closing branch.
const MinLoopSize = 2

// The steps below run in the fixed order of SynthesizeSettings, on settings
// that knobs.Settings.Validate accepted, so each relies on the steps before
// it and checks nothing Validate checks.

// buildingBlock starts the test case name: a loop body of loopSize static
// instructions (NOP placeholders) closed by a backward branch. It mirrors
// Microprobe's SimpleBuildingBlockPass(loop_size).
func (b *builder) buildingBlock(name string, loopSize int) error {
	if loopSize < MinLoopSize {
		return fmt.Errorf("loop size %d too small (need >= %d)", loopSize, MinLoopSize)
	}
	b.prog = program.New(name)
	instrs := make([]program.Instruction, loopSize)
	for i := range instrs {
		instrs[i] = program.Instruction{Op: isa.NOP, Stream: program.NoStream, Pattern: program.NoPattern}
	}
	// Loop-closing branch: bge x5, x0, kernel_loop (always taken back edge).
	instrs[loopSize-1] = program.Instruction{
		Op:      isa.BGE,
		Srcs:    [2]isa.Reg{isa.RegLoop, isa.RegZero},
		NumSrcs: 2,
		Stream:  program.NoStream,
		Pattern: program.NoPattern,
	}
	b.prog.Instructions = instrs
	b.prog.Notes = slices.Grow(b.prog.Notes, 2)
	b.prog.SetLabel(0, "kernel_loop")
	b.prog.SetComment(loopSize-1, "loop close")
	return nil
}

// setInstructionTypes assigns opcodes to the body's placeholder slots so
// that the static mix matches profile (relative weights) as closely as
// integer rounding allows. Instances of each opcode are spread evenly
// through the body (weighted round-robin placement) so that functional-unit
// pressure is uniform across the loop rather than clustered. It mirrors
// Microprobe's SetInstructionTypeByProfilePass.
func (b *builder) setInstructionTypes(profile *knobs.Profile) {
	// All yields ascending opcodes, the order the placement below breaks
	// ties in.
	entries := b.entries[:0]
	total := 0.0
	for op, w := range profile.All() {
		if w == 0 {
			continue
		}
		entries = append(entries, profileEntry{op, w})
		total += w
	}
	b.entries = entries

	body := len(b.prog.Instructions) - 1 // excluding the loop-closing branch
	// Largest-remainder apportionment of body slots to opcodes.
	counts := resized(&b.counts, len(entries))
	remainders := resized(&b.remainders, len(entries))
	assigned := 0
	for i, e := range entries {
		exact := e.weight / total * float64(body)
		counts[i] = int(exact)
		remainders[i] = exact - float64(counts[i])
		assigned += counts[i]
	}
	order := resized(&b.order, len(entries))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, c int) int {
		//lint:allow floateq exact tie-break in the largest-remainder apportionment comparator
		if remainders[a] != remainders[c] {
			if remainders[a] > remainders[c] {
				return -1
			}
			return 1
		}
		return cmp.Compare(a, c)
	})
	for i := 0; assigned < body; i++ {
		counts[order[i%len(order)]]++
		assigned++
	}

	// Weighted round-robin (Bresenham-style) placement: at each slot pick the
	// opcode with the largest accumulated deficit.
	credit := resized(&b.credit, len(entries))
	clear(credit)
	remaining := resized(&b.remaining, len(entries))
	copy(remaining, counts)
	for slot := 0; slot < body; slot++ {
		best := -1
		for i := range entries {
			if remaining[i] == 0 {
				continue
			}
			credit[i] += float64(counts[i])
			if best == -1 || credit[i] > credit[best] {
				best = i
			}
		}
		if best == -1 {
			break
		}
		credit[best] -= float64(body)
		remaining[best]--
		in := &b.prog.Instructions[slot]
		in.Op = entries[best].op
		in.NumSrcs = uint8(isa.Describe(in.Op).NumSources)
	}
}

// profileEntry is one opcode of an instruction profile with a positive
// weight.
type profileEntry struct {
	op     isa.Opcode
	weight float64
}

// The fixed shape of the branch pattern randomizeBranches attaches.
const (
	randomTakenBias   = 0.5 // probability a randomized direction is taken
	basePatternPeriod = 16  // length of the deterministic base pattern
)

// randomizeBranches attaches branch pattern 0 to the conditional branches
// of the body: a fraction ratio of dynamic directions is randomized (taken
// with probability randomTakenBias), the rest follow a deterministic
// pattern of period basePatternPeriod. It mirrors Microprobe's
// RandomizeByTypePass over branch instructions.
func (b *builder) randomizeBranches(ratio float64) {
	b.prog.Patterns = append(b.prog.Patterns, program.BranchPattern{
		ID:          0,
		RandomRatio: ratio,
		TakenBias:   randomTakenBias,
		Period:      basePatternPeriod,
	})
	last := len(b.prog.Instructions) - 1
	for i := 0; i < last; i++ {
		if b.prog.Instructions[i].IsCondBranch() {
			b.prog.Instructions[i].Pattern = 0
		}
	}
}

// memoryStreams lays out the two memory streams of Listing 2 from the data
// base on, and assigns every load and store to one in proportion to the
// streams' ratios. Stream 0 is a small "hot" stream capturing temporal
// re-use, whose share grows with set.MemTemp1 (how many accesses repeat);
// stream 1 is the "cold" stream of the configured footprint, stride and
// temporal locality. It mirrors Microprobe's GenericMemoryStreamsPass with
// two [id, size, ratio, stride, temp1, temp2] tuples.
func (b *builder) memoryStreams(set *knobs.Settings) {
	hotRatio := temporalHotRatio(set.MemTemp1)
	coldFootprint := set.MemFootprintKB * 1024
	hotFootprint := min(hotStreamBytes, coldFootprint)
	base := b.prog.DataBase
	b.prog.Streams = []program.MemoryStream{
		{ID: 0, Base: base, FootprintBytes: hotFootprint, StrideBytes: 8, Temp1: 1, Temp2: 1, Ratio: hotRatio},
		{
			ID: 1, Base: base + uint64(hotFootprint), FootprintBytes: coldFootprint, StrideBytes: set.MemStrideB,
			Temp1: set.MemTemp1, Temp2: set.MemTemp2, Ratio: 1 - hotRatio,
		},
	}
	// Weighted round-robin over the ratios, which sum to exactly 1 for
	// every ratio temporalHotRatio returns.
	var credit [2]float64
	for i := range b.prog.Instructions {
		in := &b.prog.Instructions[i]
		if !in.IsMemory() {
			continue
		}
		best := 0
		credit[0] += b.prog.Streams[0].Ratio
		credit[1] += b.prog.Streams[1].Ratio
		if credit[1] > credit[0] {
			best = 1
		}
		credit[best] -= 1.0
		in.Stream = int32(best)
	}
}

// allocateRegisters assigns destination and source registers so that the
// distance (in instructions) between a value's producer and its consumer
// equals the register dependency distance depDist. Smaller distances
// serialize the loop body (low ILP); larger distances expose more
// independent work, exactly the control the REG_DIST knob needs. It mirrors
// Microprobe's DefaultRegisterAllocationPass, over the pools Microprobe's
// ReserveRegistersPass leaves (intPool, fpPool).
func (b *builder) allocateRegisters(depDist int) {
	// Pool size equal to the dependency distance means the register written
	// by instruction i is next written (and read) depDist producer-slots
	// later, realizing the requested distance.
	intN := min(depDist, len(intPool))
	fpN := min(depDist, len(fpPool))

	// Each producing instruction writes the register in its pool that was
	// last written depDist producers earlier (dest == src, pool rotates), so
	// the value it reads is exactly depDist producer slots old. Consumers
	// without destinations (stores, branches) read the register the next
	// producer is about to overwrite, which carries the same age.
	intIdx, fpIdx := 0, 0
	last := len(b.prog.Instructions) - 1 // the loop-closing branch keeps its fixed operands
	for i := range b.prog.Instructions[:last] {
		in := &b.prog.Instructions[i]
		d := isa.Describe(in.Op)
		switch in.Op.Class() {
		case isa.ClassFloat:
			reg := fpPool[fpIdx%fpN]
			in.Dest = reg
			in.Srcs = [2]isa.Reg{reg, reg}
			in.NumSrcs = uint8(d.NumSources)
			fpIdx++
		case isa.ClassLoad:
			reg := intPool[intIdx%intN]
			in.Dest = reg
			in.Srcs = [2]isa.Reg{streamBaseReg(in.Stream)}
			in.NumSrcs = 1
			intIdx++
		case isa.ClassStore:
			src := intPool[intIdx%intN]
			in.Srcs = [2]isa.Reg{src, streamBaseReg(in.Stream)}
			in.NumSrcs = 2
		case isa.ClassBranch:
			a := intPool[intIdx%intN]
			c := intPool[(intIdx+1)%intN]
			in.Srcs = [2]isa.Reg{a, c}
			in.NumSrcs = 2
		case isa.ClassInteger:
			reg := intPool[intIdx%intN]
			in.Dest = reg
			in.Srcs = [2]isa.Reg{reg, reg}
			in.NumSrcs = uint8(d.NumSources)
			intIdx++
		default: // NOP
			in.NumSrcs = 0
		}
	}
	b.prog.Meta["reg_dependency_distance"] = strconv.Itoa(depDist)
}

// dutyCycle shapes the loop body into activity bursts: within every period
// of burstLen static instructions, the trailing (1-duty) fraction becomes a
// serialized chain of long-latency divides. Each throttle instruction
// stalls the pipeline for its full latency while dissipating almost
// nothing, so the kernel alternates between full-power activity and long
// near-idle stretches whose period the tuner controls — the raw material
// for dI/dt (voltage-droop) stress testing. A dependent divide chain is
// used instead of NOPs because NOPs retire at the full front-end width:
// they would make the idle phase short and merely dilute the burst instead
// of creating a deep, long power trough.
//
// It runs after register allocation and wires the chain through a reserved
// register (isa.RegTP) that the allocator never hands out, keeping the
// throttle phase independent of the active code's dataflow.
func (b *builder) dutyCycle(duty float64, burstLen int) {
	active := max(int(duty*float64(burstLen)), 1)
	throttle := isa.RegTP
	last := len(b.prog.Instructions) - 1 // keep the loop-closing branch
	for i := 0; i < last; i++ {
		if i%burstLen < active {
			continue
		}
		in := &b.prog.Instructions[i]
		in.Op = isa.DIV
		in.Dest = throttle
		in.Srcs = [2]isa.Reg{throttle, throttle}
		in.NumSrcs = uint8(isa.Describe(isa.DIV).NumSources)
		in.Stream = program.NoStream
		in.Pattern = program.NoPattern
	}
}

// rotate rotates the loop body (everything but the loop-closing branch)
// left by offset positions: instruction i of the rotated body is
// instruction (i+offset) mod body of the original. Over the endless loop
// the rotated kernel executes the same dynamic instruction stream merely
// started elsewhere in its period, so steady-state metrics are preserved —
// but the activity bursts dutyCycle carved now sit at a different phase
// relative to loop (and simulation) start. Co-running cores run differently
// rotated copies of one kernel, which is how the PHASE_OFFSET knobs phase
// their power bursts against each other on the shared supply network.
//
// It runs after every step that assigns opcodes, operands or streams by
// position (profile placement, register allocation, duty cycling):
// instructions move together with their operands and comments, so dataflow
// is untouched; the loop label stays on slot 0.
func (b *builder) rotate(offset int) {
	body := len(b.prog.Instructions) - 1 // the loop-closing branch stays put
	off := offset % body
	if off == 0 {
		return
	}
	rotated := resized(&b.rotated, body)
	for i := 0; i < body; i++ {
		rotated[i] = b.prog.Instructions[(i+off)%body]
	}
	copy(b.prog.Instructions, rotated)
	// Re-insert the notes at their rotated positions, into the program's
	// own (emptied) notes slice, from a copy in the builder's scratch.
	b.notes = append(b.notes[:0], b.prog.Notes...)
	b.prog.Notes = b.prog.Notes[:0]
	for _, n := range b.notes {
		if n.Index < body {
			n.Index = (n.Index - off + body) % body
			n.Label = ""
		}
		b.prog.SetLabel(n.Index, n.Label)
		b.prog.SetComment(n.Index, n.Comment)
	}
	b.prog.SetLabel(0, "kernel_loop")
}

// updateAddresses assigns static memory offsets to the memory instructions
// (informational; dynamic addresses come from the trace expander) and
// performs the final structural validation of the program. It mirrors
// Microprobe's UpdateInstructionAddressesPass.
func (b *builder) updateAddresses() error {
	var perStream [2]int // accesses so far, per stream of memoryStreams
	for i := range b.prog.Instructions {
		in := &b.prog.Instructions[i]
		if !in.IsMemory() {
			continue
		}
		s := in.Stream
		stream := b.prog.Streams[s]
		in.Imm = int64((perStream[s] * stream.StrideBytes) % stream.FootprintBytes)
		perStream[s]++
	}
	return b.prog.Validate()
}

// streamBaseReg returns the architectural base register used to address the
// given stream in emitted assembly (streams alternate between two bases).
func streamBaseReg(stream int32) isa.Reg {
	if stream >= 0 && stream%2 == 1 {
		return isa.RegBas2
	}
	return isa.RegBase
}

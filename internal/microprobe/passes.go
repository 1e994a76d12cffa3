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

// SimpleBuildingBlockPass creates the skeleton of the test case: a loop body
// of LoopSize static instructions (initially NOP placeholders) terminated by
// a loop-closing backward branch. It mirrors Microprobe's
// SimpleBuildingBlockPass(loop_size).
type SimpleBuildingBlockPass struct {
	// LoopSize is the total number of static instructions in the loop,
	// including the loop-closing branch.
	LoopSize int
}

// Name implements Pass.
func (SimpleBuildingBlockPass) Name() string { return "SimpleBuildingBlock" }

// Apply implements Pass.
func (p SimpleBuildingBlockPass) Apply(b *Builder) error {
	if p.LoopSize < 2 {
		return fmt.Errorf("loop size %d too small (need >= 2)", p.LoopSize)
	}
	if len(b.prog.Instructions) != 0 {
		return fmt.Errorf("building block already created")
	}
	instrs := make([]program.Instruction, p.LoopSize)
	for i := range instrs {
		instrs[i] = program.Instruction{Op: isa.NOP, Stream: program.NoStream, Pattern: program.NoPattern}
	}
	// Loop-closing branch: bge x5, x0, kernel_loop (always taken back edge).
	instrs[p.LoopSize-1] = program.Instruction{
		Op:      isa.BGE,
		Srcs:    [2]isa.Reg{isa.RegLoop, isa.RegZero},
		NumSrcs: 2,
		Stream:  program.NoStream,
		Pattern: program.NoPattern,
	}
	b.prog.Instructions = instrs
	b.prog.Notes = slices.Grow(b.prog.Notes, 2)
	b.prog.SetLabel(0, "kernel_loop")
	b.prog.SetComment(p.LoopSize-1, "loop close")
	return nil
}

// ReserveRegistersPass marks registers that later passes (in particular
// register allocation) must not use as scratch destinations.
type ReserveRegistersPass struct {
	Regs []isa.Reg
}

// Name implements Pass.
func (ReserveRegistersPass) Name() string { return "ReserveRegisters" }

// Apply implements Pass.
func (p ReserveRegistersPass) Apply(b *Builder) error {
	for _, r := range p.Regs {
		if !r.Valid() {
			return fmt.Errorf("invalid register %v", r)
		}
		b.ReserveRegister(r)
	}
	return nil
}

// SetInstructionTypeByProfilePass assigns opcodes to the placeholder slots of
// the loop body so that the static instruction mix matches the requested
// profile as closely as integer rounding allows. Instances of each opcode are
// spread evenly through the body (weighted round-robin placement) so that
// functional-unit pressure is uniform across the loop rather than clustered.
type SetInstructionTypeByProfilePass struct {
	// Profile holds the opcodes' relative weights. Weights need not sum to 1.
	Profile knobs.Profile
}

// Name implements Pass.
func (SetInstructionTypeByProfilePass) Name() string { return "SetInstructionTypeByProfile" }

// Apply implements Pass.
func (p SetInstructionTypeByProfilePass) Apply(b *Builder) error {
	if len(b.prog.Instructions) == 0 {
		return fmt.Errorf("building block not created yet")
	}
	if p.Profile.Len() == 0 {
		return fmt.Errorf("empty instruction profile")
	}
	// All yields ascending opcodes, the order the placement below breaks
	// ties in.
	entries := b.entries[:0]
	total := 0.0
	for op, w := range p.Profile.All() {
		if w < 0 {
			return fmt.Errorf("negative weight %v for %v", w, op)
		}
		if w == 0 {
			continue
		}
		entries = append(entries, profileEntry{op, w})
		total += w
	}
	b.entries = entries
	if total == 0 {
		return fmt.Errorf("instruction profile has zero total weight")
	}

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
	return nil
}

// profileEntry is one opcode of an instruction profile with a positive
// weight.
type profileEntry struct {
	op     isa.Opcode
	weight float64
}

// resized returns *buf resliced to length n, growing it when it is too
// short, and keeps the grown buffer in *buf. The contents are unspecified.
func resized[T any](buf *[]T, n int) []T {
	*buf = slices.Grow((*buf)[:0], n)[:n]
	return *buf
}

// DutyCyclePass shapes the loop body into activity bursts: within every
// period of BurstLen static instructions, the trailing (1-Duty) fraction is
// replaced by a serialized chain of long-latency divides on a reserved
// register. Each throttle instruction stalls the pipeline for its full
// latency while dissipating almost nothing, so the kernel alternates between
// full-power activity and long near-idle stretches whose period the tuner
// controls — the raw material for dI/dt (voltage-droop) stress testing. A
// dependent divide chain is used instead of NOPs because NOPs retire at the
// full front-end width: they would make the idle phase short and merely
// dilute the burst instead of creating a deep, long power trough.
//
// The pass must run after register allocation: it wires the chain through a
// reserved register (isa.RegTP) that the allocator never hands out, keeping
// the throttle phase independent of the active code's dataflow.
type DutyCyclePass struct {
	// Duty is the active fraction of each burst period, in (0,1].
	Duty float64
	// BurstLen is the burst period in static instructions (>= 2).
	BurstLen int
}

// Name implements Pass.
func (DutyCyclePass) Name() string { return "DutyCycle" }

// Apply implements Pass.
func (p DutyCyclePass) Apply(b *Builder) error {
	if len(b.prog.Instructions) == 0 {
		return fmt.Errorf("building block not created yet")
	}
	if p.Duty <= 0 || p.Duty > 1 {
		return fmt.Errorf("duty cycle %v outside (0,1]", p.Duty)
	}
	if p.BurstLen < 2 {
		return fmt.Errorf("burst length %d < 2", p.BurstLen)
	}
	//lint:allow floateq 1.0 is exactly representable and Duty comes from the knob value grid
	if p.Duty == 1 {
		return nil // fully active: nothing to throttle
	}
	active := int(p.Duty * float64(p.BurstLen))
	if active < 1 {
		active = 1
	}
	throttle := isa.RegTP
	last := len(b.prog.Instructions) - 1 // keep the loop-closing branch
	for i := 0; i < last; i++ {
		if i%p.BurstLen < active {
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
	return nil
}

// PhaseRotatePass rotates the loop body (everything except the loop-closing
// branch) left by OffsetInstrs positions: instruction i of the rotated body is
// instruction (i+OffsetInstrs) mod body of the original. Over the endless
// loop the rotated kernel executes the same dynamic instruction stream merely
// started elsewhere in its period, so steady-state metrics are preserved —
// but the activity bursts a DutyCyclePass carved now sit at a different phase
// relative to loop (and simulation) start. Co-running cores run differently
// rotated copies of one kernel, which is how the PHASE_OFFSET knobs phase
// their power bursts against each other on the shared supply network.
//
// The pass must run after every pass that assigns opcodes, operands or
// streams by position (profile placement, register allocation, duty cycling):
// instructions move together with their operands and comments, so dataflow is
// untouched; the loop label stays on slot 0.
type PhaseRotatePass struct {
	// OffsetInstrs is the rotation distance in static instructions; it is
	// reduced modulo the body length.
	OffsetInstrs int
}

// Name implements Pass.
func (PhaseRotatePass) Name() string { return "PhaseRotate" }

// Apply implements Pass.
func (p PhaseRotatePass) Apply(b *Builder) error {
	if len(b.prog.Instructions) == 0 {
		return fmt.Errorf("building block not created yet")
	}
	if p.OffsetInstrs < 0 {
		return fmt.Errorf("negative phase offset %d", p.OffsetInstrs)
	}
	body := len(b.prog.Instructions) - 1 // the loop-closing branch stays put
	if body < 1 {
		return nil
	}
	off := p.OffsetInstrs % body
	if off == 0 {
		return nil
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
	return nil
}

// InitializeRegistersPass records how architectural registers are initialized
// before the loop is entered. The generated kernels initialize registers in
// their prologue; this pass carries the policy into the program metadata so
// emitted artifacts document it, mirroring Microprobe's
// InitializeRegistersPass(value=RNDINT).
type InitializeRegistersPass struct {
	// Policy describes the initial value policy (e.g. "random", "zero").
	Policy string
}

// Name implements Pass.
func (InitializeRegistersPass) Name() string { return "InitializeRegisters" }

// Apply implements Pass.
func (p InitializeRegistersPass) Apply(b *Builder) error {
	policy := p.Policy
	if policy == "" {
		policy = "random"
	}
	b.prog.Meta["register_init"] = policy
	return nil
}

// RandomizeByTypePass attaches a branch-direction pattern to the conditional
// branches of the loop body: a fraction Probability of dynamic directions is
// randomized (taken with probability randomTakenBias), the rest follow a
// deterministic pattern of period basePatternPeriod. It mirrors Microprobe's
// RandomizeByTypePass over branch instructions.
type RandomizeByTypePass struct {
	// Probability is the randomization ratio in [0,1].
	Probability float64
}

// The fixed shape of every branch pattern RandomizeByTypePass attaches.
const (
	randomTakenBias   = 0.5 // probability a randomized direction is taken
	basePatternPeriod = 16  // length of the deterministic base pattern
)

// Name implements Pass.
func (RandomizeByTypePass) Name() string { return "RandomizeByType" }

// Apply implements Pass.
func (p RandomizeByTypePass) Apply(b *Builder) error {
	if len(b.prog.Instructions) == 0 {
		return fmt.Errorf("building block not created yet")
	}
	if p.Probability < 0 || p.Probability > 1 {
		return fmt.Errorf("randomization probability %v outside [0,1]", p.Probability)
	}
	pattern := program.BranchPattern{
		ID:          len(b.prog.Patterns),
		RandomRatio: p.Probability,
		TakenBias:   randomTakenBias,
		Period:      basePatternPeriod,
	}
	b.prog.Patterns = append(b.prog.Patterns, pattern)
	last := len(b.prog.Instructions) - 1
	for i := 0; i < last; i++ {
		if b.prog.Instructions[i].IsCondBranch() {
			b.prog.Instructions[i].Pattern = int32(pattern.ID)
		}
	}
	return nil
}

// StreamSpec describes one memory stream requested from
// GenericMemoryStreamsPass, mirroring the [id, size, ratio, stride, temp1,
// temp2] tuples of Microprobe's GenericMemoryStreamsPass.
type StreamSpec struct {
	// FootprintBytes is the stream's working-set size.
	FootprintBytes int
	// Ratio is the fraction of the program's memory accesses this stream
	// should carry; ratios across specs are normalized.
	Ratio float64
	// StrideBytes is the access stride.
	StrideBytes int
	// Temp1 and Temp2 control temporal re-use (burst length and period).
	Temp1, Temp2 int
}

// GenericMemoryStreamsPass creates the program's memory streams and assigns
// every load/store instruction to a stream in proportion to the stream
// ratios.
type GenericMemoryStreamsPass struct {
	Streams []StreamSpec
}

// Name implements Pass.
func (GenericMemoryStreamsPass) Name() string { return "GenericMemoryStreams" }

// Apply implements Pass.
func (p GenericMemoryStreamsPass) Apply(b *Builder) error {
	if len(b.prog.Instructions) == 0 {
		return fmt.Errorf("building block not created yet")
	}
	if len(p.Streams) == 0 {
		return fmt.Errorf("no memory streams specified")
	}
	totalRatio := 0.0
	for _, s := range p.Streams {
		if s.FootprintBytes <= 0 || s.StrideBytes <= 0 {
			return fmt.Errorf("stream with non-positive footprint or stride")
		}
		if s.Ratio < 0 {
			return fmt.Errorf("stream with negative ratio")
		}
		totalRatio += s.Ratio
	}
	if totalRatio == 0 {
		return fmt.Errorf("memory streams have zero total ratio")
	}
	base := b.prog.DataBase
	firstID := len(b.prog.Streams)
	b.prog.Streams = slices.Grow(b.prog.Streams, len(p.Streams))
	for i, s := range p.Streams {
		for _, prev := range b.prog.Streams {
			base = maxU64(base, prev.Base+uint64(prev.FootprintBytes))
		}
		t1, t2 := s.Temp1, s.Temp2
		if t1 <= 0 {
			t1 = 1
		}
		if t2 <= 0 {
			t2 = 1
		}
		b.prog.Streams = append(b.prog.Streams, program.MemoryStream{
			ID:             firstID + i,
			Base:           base,
			FootprintBytes: s.FootprintBytes,
			StrideBytes:    s.StrideBytes,
			Temp1:          t1,
			Temp2:          t2,
			Ratio:          s.Ratio / totalRatio,
		})
		base += uint64(s.FootprintBytes)
	}
	// Assign memory instructions to streams with weighted round-robin over
	// the normalized ratios.
	credit := resized(&b.credit, len(b.prog.Streams))
	clear(credit)
	for i := range b.prog.Instructions {
		in := &b.prog.Instructions[i]
		if !in.IsMemory() {
			continue
		}
		best := -1
		for s := range b.prog.Streams {
			credit[s] += b.prog.Streams[s].Ratio
			if best == -1 || credit[s] > credit[best] {
				best = s
			}
		}
		credit[best] -= 1.0
		in.Stream = int32(best)
	}
	return nil
}

// DefaultRegisterAllocationPass assigns destination and source registers so
// that the distance (in instructions) between a value's producer and its
// consumer equals the requested register dependency distance. Smaller
// distances serialize the loop body (low ILP); larger distances expose more
// independent work, exactly the control the REG_DIST knob needs.
type DefaultRegisterAllocationPass struct {
	// DepDist is the register dependency distance (>= 1).
	DepDist int
}

// Name implements Pass.
func (DefaultRegisterAllocationPass) Name() string { return "DefaultRegisterAllocation" }

// Apply implements Pass.
func (p DefaultRegisterAllocationPass) Apply(b *Builder) error {
	if len(b.prog.Instructions) == 0 {
		return fmt.Errorf("building block not created yet")
	}
	if p.DepDist < 1 {
		return fmt.Errorf("dependency distance %d < 1", p.DepDist)
	}

	intPool := b.availableIntRegs()
	fpPool := b.availableFPRegs()
	if len(intPool) == 0 || len(fpPool) == 0 {
		return fmt.Errorf("register pools exhausted by reservations")
	}
	// Pool size equal to the dependency distance means the register written
	// by instruction i is next written (and read) DepDist producer-slots
	// later, realizing the requested distance.
	intN := minInt(p.DepDist, len(intPool))
	fpN := minInt(p.DepDist, len(fpPool))

	// Each producing instruction writes the register in its pool that was
	// last written DepDist producers earlier (dest == src, pool rotates), so
	// the value it reads is exactly DepDist producer slots old. Consumers
	// without destinations (stores, branches) read the register the next
	// producer is about to overwrite, which carries the same age.
	intIdx, fpIdx := 0, 0
	for i := range b.prog.Instructions {
		in := &b.prog.Instructions[i]
		if i == len(b.prog.Instructions)-1 {
			break // loop-closing branch keeps its fixed operands
		}
		d := isa.Describe(in.Op)
		switch {
		case in.Op.Class() == isa.ClassFloat:
			reg := fpPool[fpIdx%fpN]
			in.Dest = reg
			in.Srcs = [2]isa.Reg{reg, reg}
			in.NumSrcs = uint8(d.NumSources)
			fpIdx++
		case in.Op.Class() == isa.ClassLoad:
			reg := intPool[intIdx%intN]
			in.Dest = reg
			in.Srcs = [2]isa.Reg{streamBaseReg(in.Stream)}
			in.NumSrcs = 1
			intIdx++
		case in.Op.Class() == isa.ClassStore:
			src := intPool[intIdx%intN]
			in.Srcs = [2]isa.Reg{src, streamBaseReg(in.Stream)}
			in.NumSrcs = 2
		case in.Op.Class() == isa.ClassBranch:
			a := intPool[intIdx%intN]
			c := intPool[(intIdx+1)%intN]
			in.Srcs = [2]isa.Reg{a, c}
			in.NumSrcs = 2
		case in.Op.Class() == isa.ClassInteger:
			reg := intPool[intIdx%intN]
			in.Dest = reg
			in.Srcs = [2]isa.Reg{reg, reg}
			in.NumSrcs = uint8(d.NumSources)
			intIdx++
		default: // NOP
			in.NumSrcs = 0
		}
	}
	b.prog.Meta["reg_dependency_distance"] = strconv.Itoa(p.DepDist)
	return nil
}

// UpdateInstructionAddressesPass assigns static memory offsets to memory
// instructions (informational; dynamic addresses come from the trace
// expander) and performs the final structural validation of the program,
// mirroring Microprobe's UpdateInstructionAddressesPass.
type UpdateInstructionAddressesPass struct{}

// Name implements Pass.
func (UpdateInstructionAddressesPass) Name() string { return "UpdateInstructionAddresses" }

// Apply implements Pass.
func (p UpdateInstructionAddressesPass) Apply(b *Builder) error {
	perStream := resized(&b.perStream, len(b.prog.Streams))
	clear(perStream)
	for i := range b.prog.Instructions {
		in := &b.prog.Instructions[i]
		if !in.IsMemory() {
			continue
		}
		s := in.Stream
		if s < 0 || int(s) >= len(b.prog.Streams) {
			return fmt.Errorf("memory instruction %d has no stream assigned (run GenericMemoryStreamsPass first)", i)
		}
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

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

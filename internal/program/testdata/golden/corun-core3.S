# Synthetic test case "corun-core3" generated by MicroGrad-Go
# static instructions: 160, data footprint: 20480 bytes
# meta branch_random_ratio = 0.100
# meta burst_len = 96
# meta duty_cycle = 0.70
# meta generator = micrograd/microprobe
# meta loop_size = 160
# meta mem_footprint_kb = 16
# meta mem_stride_b = 8
# meta phase_offset = 160
# meta reg_dependency_distance = 8
# meta register_init = random

	.section .data
	.align 6
stream0:
	.zero 4096
stream1:
	.zero 16384

	.section .text
	.globl _start
_start:
	la x6, stream0
	la x7, stream1
	li x5, 0		# loop counter

kernel_loop:
	beq x9, x10, .+4
	bne x9, x10, .+4
	mul x9, x9, x9
	sw x10, 0(x7)
	fmul.d f0, f0, f0
	ld x10, 0(x6)
	fadd.d f1, f1, f1
	lw x11, 8(x7)
	add x12, x12, x12
	beq x13, x14, .+4
	bne x13, x14, .+4
	mul x13, x13, x13
	sw x14, 16(x7)
	fmul.d f2, f2, f2
	add x14, x14, x14
	sd x15, 8(x6)
	ld x15, 24(x7)
	beq x8, x9, .+4
	bne x8, x9, .+4
	fadd.d f3, f3, f3
	add x8, x8, x8
	mul x9, x9, x9
	sw x10, 32(x7)
	lw x10, 16(x6)
	fmul.d f4, f4, f4
	beq x11, x12, .+4
	bne x11, x12, .+4
	add x11, x11, x11
	ld x12, 40(x7)
	mul x13, x13, x13
	sw x14, 48(x7)
	add x14, x14, x14
	beq x15, x8, .+4
	bne x15, x8, .+4
	fmul.d f5, f5, f5
	fadd.d f6, f6, f6
	lw x15, 24(x6)
	mul x8, x8, x8
	add x9, x9, x9
	sw x10, 56(x7)
	beq x10, x11, .+4
	bne x10, x11, .+4
	ld x10, 64(x7)
	fmul.d f7, f7, f7
	add x11, x11, x11
	sd x12, 32(x6)
	mul x12, x12, x12
	sw x13, 72(x7)
	beq x13, x14, .+4
	bne x13, x14, .+4
	fadd.d f0, f0, f0
	add x13, x13, x13
	fmul.d f1, f1, f1
	ld x14, 80(x7)
	lw x15, 40(x6)
	beq x8, x9, .+4
	bne x8, x9, .+4
	mul x8, x8, x8
	add x9, x9, x9
	sw x10, 88(x7)
	fadd.d f2, f2, f2
	fmul.d f3, f3, f3
	add x10, x10, x10
	beq x11, x12, .+4
	bne x11, x12, .+4
	mul x11, x11, x11
	div x4, x4, x4
	div x4, x4, x4
	div x4, x4, x4
	div x4, x4, x4
	div x4, x4, x4
	div x4, x4, x4
	div x4, x4, x4
	div x4, x4, x4
	div x4, x4, x4
	div x4, x4, x4
	div x4, x4, x4
	div x4, x4, x4
	div x4, x4, x4
	div x4, x4, x4
	div x4, x4, x4
	div x4, x4, x4
	div x4, x4, x4
	div x4, x4, x4
	div x4, x4, x4
	div x4, x4, x4
	div x4, x4, x4
	div x4, x4, x4
	div x4, x4, x4
	div x4, x4, x4
	div x4, x4, x4
	div x4, x4, x4
	div x4, x4, x4
	div x4, x4, x4
	div x4, x4, x4
	beq x9, x10, .+4
	bne x9, x10, .+4
	lw x9, 48(x6)
	add x10, x10, x10
	mul x11, x11, x11
	sw x12, 96(x7)
	beq x12, x13, .+4
	bne x12, x13, .+4
	ld x12, 104(x7)
	fmul.d f1, f1, f1
	add x13, x13, x13
	fadd.d f2, f2, f2
	sd x14, 56(x6)
	beq x14, x15, .+4
	bne x14, x15, .+4
	mul x14, x14, x14
	sw x15, 112(x7)
	add x15, x15, x15
	fmul.d f3, f3, f3
	ld x8, 120(x7)
	beq x9, x10, .+4
	bne x9, x10, .+4
	lw x9, 64(x6)
	add x10, x10, x10
	mul x11, x11, x11
	sw x12, 128(x7)
	fadd.d f4, f4, f4
	fmul.d f5, f5, f5
	beq x12, x13, .+4
	bne x12, x13, .+4
	add x12, x12, x12
	mul x13, x13, x13
	sw x14, 136(x7)
	ld x14, 72(x6)
	add x15, x15, x15
	beq x8, x9, .+4
	bne x8, x9, .+4
	fmul.d f6, f6, f6
	lw x8, 144(x7)
	fadd.d f7, f7, f7
	mul x9, x9, x9
	sw x10, 152(x7)
	add x10, x10, x10
	beq x11, x12, .+4
	bne x11, x12, .+4
	ld x11, 80(x6)
	sd x12, 160(x7)
	add x12, x12, x12
	fmul.d f0, f0, f0
	mul x13, x13, x13
	sw x14, 168(x7)
	beq x14, x15, .+4
	bne x14, x15, .+4
	add x14, x14, x14
	lw x15, 88(x6)
	fadd.d f1, f1, f1
	ld x8, 176(x7)
	fmul.d f2, f2, f2
	mul x9, x9, x9
	sw x10, 184(x7)
	beq x10, x11, .+4
	bne x10, x11, .+4
	add x10, x10, x10
	add x8, x8, x8
	bge x5, x0, kernel_loop	# loop close


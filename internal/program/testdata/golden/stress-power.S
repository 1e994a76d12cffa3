# Synthetic test case "stress-power" generated by MicroGrad-Go
# static instructions: 160, data footprint: 20480 bytes
# meta branch_random_ratio = 0.100
# meta generator = micrograd/microprobe
# meta loop_size = 160
# meta mem_footprint_kb = 16
# meta mem_stride_b = 8
# meta reg_dependency_distance = 5
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
	fmul.d f0, f0, f0
	bne x8, x9, .+4
	mul x8, x8, x8
	fadd.d f1, f1, f1
	sd x9, 0(x7)
	ld x9, 0(x6)
	fmul.d f2, f2, f2
	bne x10, x11, .+4
	mul x10, x10, x10
	fadd.d f3, f3, f3
	sd x11, 8(x7)
	add x11, x11, x11
	beq x12, x8, .+4
	ld x12, 16(x7)
	fmul.d f4, f4, f4
	bne x8, x9, .+4
	mul x8, x8, x8
	fadd.d f0, f0, f0
	sd x9, 8(x6)
	fmul.d f1, f1, f1
	bne x9, x10, .+4
	ld x9, 24(x7)
	mul x10, x10, x10
	fadd.d f2, f2, f2
	fmul.d f3, f3, f3
	lw x11, 32(x7)
	sd x12, 16(x6)
	bne x12, x8, .+4
	sw x12, 40(x7)
	mul x12, x12, x12
	fmul.d f4, f4, f4
	fadd.d f0, f0, f0
	ld x8, 48(x7)
	bne x9, x10, .+4
	sd x9, 24(x6)
	fmul.d f1, f1, f1
	mul x9, x9, x9
	fadd.d f2, f2, f2
	add x10, x10, x10
	bne x11, x12, .+4
	ld x11, 56(x7)
	fmul.d f3, f3, f3
	sd x12, 64(x7)
	beq x12, x8, .+4
	mul x12, x12, x12
	fadd.d f4, f4, f4
	bne x8, x9, .+4
	fmul.d f0, f0, f0
	ld x8, 32(x6)
	sd x9, 72(x7)
	mul x9, x9, x9
	fadd.d f1, f1, f1
	fmul.d f2, f2, f2
	bne x10, x11, .+4
	mul x10, x10, x10
	sd x11, 80(x7)
	ld x11, 40(x6)
	fmul.d f3, f3, f3
	bne x12, x8, .+4
	fadd.d f4, f4, f4
	add x12, x12, x12
	mul x8, x8, x8
	fmul.d f0, f0, f0
	bne x9, x10, .+4
	sd x9, 88(x7)
	fadd.d f1, f1, f1
	ld x9, 96(x7)
	beq x10, x11, .+4
	fmul.d f2, f2, f2
	mul x10, x10, x10
	bne x11, x12, .+4
	sd x11, 48(x6)
	fadd.d f3, f3, f3
	fmul.d f4, f4, f4
	ld x11, 104(x7)
	mul x12, x12, x12
	bne x8, x9, .+4
	lw x8, 112(x7)
	sw x9, 56(x6)
	fmul.d f0, f0, f0
	fadd.d f1, f1, f1
	sd x9, 120(x7)
	bne x9, x10, .+4
	mul x9, x9, x9
	ld x10, 128(x7)
	fmul.d f2, f2, f2
	fadd.d f3, f3, f3
	sd x11, 64(x6)
	bne x11, x12, .+4
	mul x11, x11, x11
	fmul.d f4, f4, f4
	add x12, x12, x12
	ld x8, 136(x7)
	fadd.d f0, f0, f0
	beq x9, x10, .+4
	bne x9, x10, .+4
	sd x9, 144(x7)
	fmul.d f1, f1, f1
	mul x9, x9, x9
	fadd.d f2, f2, f2
	bne x10, x11, .+4
	fmul.d f3, f3, f3
	ld x10, 72(x6)
	sd x11, 152(x7)
	mul x11, x11, x11
	fadd.d f4, f4, f4
	fmul.d f0, f0, f0
	bne x12, x8, .+4
	mul x12, x12, x12
	sd x8, 160(x7)
	ld x8, 80(x6)
	fmul.d f1, f1, f1
	bne x9, x10, .+4
	fadd.d f2, f2, f2
	mul x9, x9, x9
	add x10, x10, x10
	sd x11, 168(x7)
	fmul.d f3, f3, f3
	beq x11, x12, .+4
	bne x11, x12, .+4
	ld x11, 176(x7)
	fadd.d f4, f4, f4
	mul x12, x12, x12
	fmul.d f0, f0, f0
	sd x8, 88(x6)
	bne x8, x9, .+4
	lw x8, 184(x7)
	fadd.d f1, f1, f1
	ld x9, 192(x7)
	fmul.d f2, f2, f2
	mul x10, x10, x10
	bne x11, x12, .+4
	sd x11, 96(x6)
	sw x11, 200(x7)
	fmul.d f3, f3, f3
	fadd.d f4, f4, f4
	mul x11, x11, x11
	ld x12, 208(x7)
	bne x8, x9, .+4
	fmul.d f0, f0, f0
	sd x8, 104(x6)
	fadd.d f1, f1, f1
	mul x8, x8, x8
	bne x9, x10, .+4
	add x9, x9, x9
	fmul.d f2, f2, f2
	ld x10, 216(x7)
	beq x11, x12, .+4
	sd x11, 224(x7)
	fadd.d f3, f3, f3
	mul x11, x11, x11
	bne x12, x8, .+4
	fmul.d f4, f4, f4
	ld x12, 112(x6)
	sd x8, 232(x7)
	fadd.d f0, f0, f0
	mul x8, x8, x8
	bne x9, x10, .+4
	fmul.d f1, f1, f1
	bge x5, x0, kernel_loop	# loop close

